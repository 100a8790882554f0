package rtec

import (
	"encoding/csv"
	"io"
	"sort"
	"strconv"

	"rtecgen/internal/intervals"
	"rtecgen/internal/lang"
	"rtecgen/internal/stream"
	"rtecgen/internal/telemetry"
)

// RunOptions configure a recognition run.
type RunOptions struct {
	// Window is the sliding-window size ω in time-points. Zero means a
	// single window over the whole stream.
	Window int64
	// Slide is the step between query times. Zero defaults to Window
	// (tumbling windows).
	Slide int64
	// Start and End bound the recognition time-line [Start, End). When both
	// are zero they are derived from the stream (first event, last event+1).
	Start, End int64
}

// Recognition holds the result of a run: the maximal intervals of every
// ground FVP over the whole time-line, amalgamated across windows and
// clipped to [Start, End).
type Recognition struct {
	Start, End int64
	byKey      map[string]intervals.List
	fvps       map[string]*lang.Term
	Warnings   []Warning
}

// newRecognition returns an empty recognition over [start, end).
func newRecognition(start, end int64) *Recognition {
	return &Recognition{Start: start, End: end, byKey: map[string]intervals.List{}, fvps: map[string]*lang.Term{}}
}

// IntervalsOf returns the recognised maximal intervals of a ground FVP,
// given as an '='(F, V) term.
func (r *Recognition) IntervalsOf(fvp *lang.Term) intervals.List {
	return r.byKey[fvpKey(fvp)]
}

// IntervalsOfKey returns the intervals for a canonical FVP key, e.g.
// "withinArea(v1, fishing)=true".
func (r *Recognition) IntervalsOfKey(key string) intervals.List { return r.byKey[key] }

// HoldsAt reports whether the FVP holds at time-point t.
func (r *Recognition) HoldsAt(fvp *lang.Term, t int64) bool {
	return r.byKey[fvpKey(fvp)].Contains(t)
}

// Keys returns the canonical keys of all recognised FVPs, sorted.
func (r *Recognition) Keys() []string {
	out := make([]string, 0, len(r.byKey))
	for k := range r.byKey {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// FVP returns the parsed FVP term for a canonical key.
func (r *Recognition) FVP(key string) *lang.Term { return r.fvps[key] }

// ByFluent groups the recognised FVP keys by fluent indicator, e.g.
// "withinArea/2" -> all ground withinArea FVPs.
func (r *Recognition) ByFluent() map[string][]string {
	out := map[string][]string{}
	for k, fvp := range r.fvps {
		out[fluentKeyOf(fvp)] = append(out[fluentKeyOf(fvp)], k)
	}
	for _, ks := range out {
		sort.Strings(ks)
	}
	return out
}

// FluentIntervals returns the union of the intervals of every FVP of the
// given fluent indicator whose value matches the given value term (nil
// matches any value): the recognised instances of an activity across all
// entities.
func (r *Recognition) FluentIntervals(ind string, value *lang.Term) map[string]intervals.List {
	out := map[string]intervals.List{}
	for k, fvp := range r.fvps {
		if fluentKeyOf(fvp) != ind {
			continue
		}
		if value != nil && !fvp.Args[1].Equal(value) {
			continue
		}
		out[k] = r.byKey[k]
	}
	return out
}

// WriteCSV serialises the recognition result as rows of
// "fluent,fvp,since,until", one row per maximal interval, using RTEC's
// (since, until] display convention. Open-ended intervals print "inf" as
// until. Rows are sorted by FVP key, then time.
func (r *Recognition) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"fluent", "fvp", "since", "until"}); err != nil {
		return err
	}
	for _, key := range r.Keys() {
		fvp := r.fvps[key]
		ind := fluentKeyOf(fvp)
		for _, iv := range r.byKey[key] {
			until := "inf"
			if iv.End != intervals.Inf {
				until = strconv.FormatInt(iv.End-1, 10)
			}
			if err := cw.Write([]string{ind, key, strconv.FormatInt(iv.Start-1, 10), until}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WindowResult is the outcome of one query time, delivered by RunWindows as
// soon as the window is evaluated: the ground FVPs recognised within
// [WindowStart, QueryTime) and their intervals clipped to the window.
//
// Under out-of-order ingestion (Engine.RunStream), the same window may be
// delivered more than once: late events within the delay bound mark the
// affected windows, a later flush re-evaluates them (see RunStream), and each
// re-delivery carries an incremented Revision and the retraction diff against
// the previous delivery. In-order runs always deliver Revision 0 with a nil
// Retracted.
type WindowResult struct {
	WindowStart, QueryTime int64
	// Recognised maps canonical FVP keys to their clipped interval lists.
	Recognised map[string]intervals.List
	// FVPs maps the same keys to the parsed FVP terms.
	FVPs map[string]*lang.Term
	// Revision counts re-deliveries of this window: 0 for the first
	// evaluation, incremented by every flush of late events that changes it.
	Revision int
	// Retracted maps FVP keys to the intervals that were reported by the
	// previous revision of this window but no longer hold. Nil on the first
	// delivery.
	Retracted map[string]intervals.List
}

// Run performs windowed recognition over the stream and returns the
// amalgamated results. The stream need not be sorted; a sorted copy is used.
// Runtime warnings (conditions that could not be evaluated) are collected on
// the Recognition.
func (e *Engine) Run(events stream.Stream, opts RunOptions) (*Recognition, error) {
	p, err := prepare(events, opts)
	if err != nil {
		return nil, err
	}
	return e.RunPrepared(p, nil)
}

// RunWindows performs windowed recognition and invokes fn after every query
// time with that window's results — the run-time consumption mode, where a
// consumer reacts to detections with the latency of one window rather than
// waiting for the whole stream. An empty stream produces no windows.
// Returning a non-nil error from fn aborts the run.
func (e *Engine) RunWindows(events stream.Stream, opts RunOptions, fn func(WindowResult) error) error {
	p, err := prepare(events, opts)
	if err != nil {
		return err
	}
	_, err = e.RunPrepared(p, fn)
	return err
}

// RunPrepared is batch recognition: RunStream's run loop (streamRun) drained
// over the windows of p, with no reorder buffer and no checkpoint. It hands
// each window's results to fn (which may be nil; a non-nil error from it
// aborts the run) and returns the amalgamated recognition. Engines run over
// the same Prepared — concurrently or one after another — share its sorted
// stream and window indexes, and a fluent that two of them define
// identically (see Engine.fingerprint) is evaluated by the first to reach a
// window and installed by the other; every run's results, warnings and logs
// are what a Run of its own would have produced. Engines with DisableCache
// do not take part in the sharing; every other engine consults the table in
// every window, overlapping ones included, and evaluates the windows it
// misses in full, not through the delta layer.
func (e *Engine) RunPrepared(p *Prepared, fn func(WindowResult) error) (*Recognition, error) {
	tl := p.tl
	if tl == nil {
		return newRecognition(0, 0), nil
	}
	tel := e.opts.Telemetry
	st := &streamRun{
		eng:      e,
		tl:       tl,
		prepared: p,
		slots:    make([]windowSlot, tl.n),
		fn:       fn,
		span: tel.Span("rtec.run",
			telemetry.Int("events", int64(len(p.events))),
			telemetry.Int("window", tl.window), telemetry.Int("slide", tl.slide),
			telemetry.Int("start", tl.start), telemetry.Int("end", tl.end)),
	}
	defer st.span.End()
	tel.Counter("rtec.events.ingested").Add(int64(len(p.events)))
	tel.Logger().Debug("recognition run",
		"component", "rtec", "events", len(p.events),
		"window", tl.window, "slide", tl.slide, "start", tl.start, "end", tl.end,
		"windows", tl.n, "fluents", len(e.order))

	if p.table != nil && !e.opts.DisableCache {
		describeInstruments(tel)
		st.shared = &sharedRun{
			table: p.table, fps: p.table.fingerprints(e),
			hits: tel.Counter("rtec.shared.hits"), misses: tel.Counter("rtec.shared.misses"),
		}
	}
	// A run over the fluent table never uses the delta layer: a hit would
	// leave it nothing to capture, and delta evaluation equals full
	// evaluation, so every window of a shared run consults the table.
	st.deltaOn = !e.opts.DisableDelta && !e.opts.DisableCache && st.shared == nil
	for st.emitted < tl.n {
		if err := st.emitNext(); err != nil {
			return nil, err
		}
		st.final = st.emitted // nothing revises a batch window once it is emitted
	}
	return st.amalgamate(), nil
}
