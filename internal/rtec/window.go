package rtec

import (
	"fmt"

	"rtecgen/internal/intervals"
	"rtecgen/internal/lang"
	"rtecgen/internal/stream"
	"rtecgen/internal/telemetry"
)

// timeline is the concrete recognition plan resolved from RunOptions and a
// stream: the time-line bounds, the window geometry and the query-time
// count. Query times are computed on demand (q(i)) rather than materialised
// into a slice, so planning a months-long soak run costs O(1) memory. Both
// the in-order runner (RunPrepared) and the out-of-order streaming runner
// (RunStream) plan windows through it, so they agree exactly on which
// windows exist and where they start.
type timeline struct {
	start, end    int64
	window, slide int64
	n             int // number of windows; window i covers [windowStart(i), q(i))
}

// planTimeline resolves opts against the stream. empty is true for the
// degenerate case of a whole-stream time-line over no events, which
// produces no windows. A negative window or slide is refused: zero is the
// only value that means "the default".
func planTimeline(s stream.Stream, opts RunOptions) (tl *timeline, empty bool, err error) {
	if opts.Window < 0 {
		return nil, false, fmt.Errorf("rtec: negative window %d", opts.Window)
	}
	if opts.Slide < 0 {
		return nil, false, fmt.Errorf("rtec: negative slide %d", opts.Slide)
	}
	start, end := opts.Start, opts.End
	if start == 0 && end == 0 {
		if len(s) == 0 {
			return nil, true, nil
		}
		first, last := s.TimeRange()
		start, end = first, last+1
	}
	if end <= start {
		return nil, false, fmt.Errorf("rtec: empty time-line [%d, %d)", start, end)
	}
	window := opts.Window
	if window <= 0 {
		window = end - start
	}
	slide := opts.Slide
	if slide <= 0 {
		slide = window
	}
	if slide > window {
		return nil, false, fmt.Errorf("rtec: slide %d exceeds window %d; events would be skipped", slide, window)
	}

	// Query times q = start+window, start+window+slide, ..., end; each
	// window covers [max(start, q-window), q). The count is closed-form:
	// the interior query times are those strictly before end, plus the
	// final window ending exactly at end.
	tl = &timeline{start: start, end: end, window: window, slide: slide, n: 1}
	if span := end - start - window; span > 0 {
		tl.n = int((span+slide-1)/slide) + 1
	}
	return tl, false, nil
}

// q returns the query time of window i: the interior query times advance by
// the slide, and the last window always ends exactly at the time-line end.
func (tl *timeline) q(i int) int64 {
	if i == tl.n-1 {
		return tl.end
	}
	return tl.start + tl.window + int64(i)*tl.slide
}

// windowStart returns the left edge of window i.
func (tl *timeline) windowStart(i int) int64 {
	ws := tl.q(i) - tl.window
	if ws < tl.start {
		ws = tl.start
	}
	return ws
}

// nextWindowStart returns the left edge of window i+1, or -1 after the last
// window — the time-point at which simple FVPs must still hold to persist
// into the next window by the law of inertia.
func (tl *timeline) nextWindowStart(i int) int64 {
	if i+1 >= tl.n {
		return -1
	}
	return tl.windowStart(i + 1)
}

// windowEval is the outcome of evaluating one window: the recognised FVPs
// with their intervals clipped to the window, and the simple FVPs that
// persist into the next window by the law of inertia.
type windowEval struct {
	recognised map[string]intervals.List
	fvps       map[string]*lang.Term
	nextOpen   map[string]*lang.Term // fvpKey -> fvp, holding at nws
}

// intervalCount returns the total number of clipped intervals.
func (we windowEval) intervalCount() int64 {
	var n int64
	for _, l := range we.recognised {
		n += int64(len(l))
	}
	return n
}

// sameRecognised reports whether two evaluations recognised exactly the
// same FVPs with exactly the same clipped intervals.
func (we windowEval) sameRecognised(o windowEval) bool {
	if len(we.recognised) != len(o.recognised) {
		return false
	}
	for k, l := range we.recognised {
		if !l.Equal(o.recognised[k]) {
			return false
		}
	}
	return true
}

// sameOpen reports whether two evaluations carry the same open simple FVPs
// into the next window.
func (we windowEval) sameOpen(o windowEval) bool {
	if len(we.nextOpen) != len(o.nextOpen) {
		return false
	}
	for k := range we.nextOpen {
		if _, ok := o.nextOpen[k]; !ok {
			return false
		}
	}
	return true
}

// retractionsAgainst diffs a fresh evaluation against the previously
// delivered one: for every FVP key, the intervals the previous delivery
// reported that the fresh one no longer covers. An empty map means the new
// delivery only adds or keeps intervals.
func (we windowEval) retractionsAgainst(prev windowEval) map[string]intervals.List {
	out := map[string]intervals.List{}
	for k, old := range prev.recognised {
		gone := intervals.RelativeComplement(old, we.recognised[k])
		if len(gone) > 0 {
			out[k] = gone
		}
	}
	return out
}

// evalWindow evaluates one window [ws, we) over its (sorted) events, given
// the simple FVPs carried in by inertia, and returns the clipped
// recognition together with the FVPs persisting into a window starting at
// nws (none when nws < 0). This is the shared evaluation core of the
// in-order and the out-of-order runners: both produce byte-identical
// recognition for the same window inputs because both go through here.
//
// dctx, when non-nil, threads the delta layer through the evaluation: the
// previous window's carried state seeds act replay for clean anchor times,
// and the state of this evaluation is captured for the next slide (see
// delta.go). A nil dctx is the full re-evaluation the delta path must stay
// byte-identical to.
//
// shared, unless zero, places the window in its Prepared's fluent table (see
// evalFluent); the batch loop never passes it with a dctx.
func (e *Engine) evalWindow(winEvents *windowIndex, ws, we, nws int64, prevOpen map[string]*lang.Term, warnSink *[]Warning, parent *telemetry.Span, dctx *deltaCtx, shared sharedWindow) windowEval {
	tel := e.opts.Telemetry
	wspan := parent.Span("rtec.window",
		telemetry.Int("window_start", ws), telemetry.Int("query_time", we),
		telemetry.Int("events", int64(winEvents.n)))
	w := newWindowState(e, winEvents, ws, we, prevOpen, warnSink, tel, wspan)
	if dctx != nil && !e.opts.DisableCache {
		dctx.attach(w)
	}
	w.shared = shared
	w.evaluate()
	if w.delta != nil {
		w.delta.flush(tel)
	}
	tel.Counter("rtec.windows.evaluated").Inc()

	out := windowEval{
		recognised: map[string]intervals.List{},
		fvps:       map[string]*lang.Term{},
		nextOpen:   map[string]*lang.Term{},
	}
	for _, ent := range w.cache {
		// The canonical key was rendered once when the FVP was first
		// interned; this is a cache read, not a re-rendering.
		key := e.interner.StringOf(ent.id)
		clipped := intervals.Clip(ent.list, ws, we)
		if len(clipped) > 0 {
			out.recognised[key] = clipped
			out.fvps[key] = ent.fvp
		}
		if nws < 0 {
			continue
		}
		// A simple FVP that (per this window's computation) holds at nws
		// persists into the next window by the law of inertia.
		if fl, ok := e.fluentsByPred[ent.fluent]; ok && fl.kind == Simple && ent.list.Contains(nws) {
			out.nextOpen[key] = ent.fvp
		}
	}
	wspan.SetAttrs(telemetry.Int("fvps", int64(len(w.cache))), telemetry.Int("intervals", out.intervalCount()))
	wspan.End()
	return out
}
