package rtec

import (
	"fmt"
	"time"

	"rtecgen/internal/intervals"
	"rtecgen/internal/lang"
	"rtecgen/internal/stream"
	"rtecgen/internal/telemetry"
	"rtecgen/internal/telemetry/journal"
)

// StreamOptions configure an out-of-order, crash-safe recognition run.
type StreamOptions struct {
	RunOptions
	// MaxDelay is the bounded-delay disorder tolerance in time-points:
	// events arriving behind the event-time frontier by at most MaxDelay
	// are admitted and revise the affected windows; older events are
	// counted and dropped. Zero tolerates no disorder (out-of-order events
	// are dropped), which over an in-order stream reproduces Run exactly.
	MaxDelay int64
	// CheckpointPath, when non-empty, enables crash-safe checkpointing: a
	// versioned, checksummed snapshot of the run state is written
	// atomically (write-temp+rename) to this path every CheckpointEvery
	// windows.
	CheckpointPath string
	// CheckpointEvery is the number of first-time window emissions between
	// snapshots. Zero defaults to 1 (snapshot after every window); a
	// negative cadence is refused.
	CheckpointEvery int
	// Journal, when non-nil, receives the structured audit records of the
	// run: the run plan, degradation admission verdicts, every window
	// delivery with its assertion/retraction diff, checkpoint events and the
	// final statistics. A journal write failure fails the run — an audit
	// trail with a hole is worse than no run.
	Journal *journal.Writer
}

// StreamStats counts what happened to the arrivals of a streaming run.
type StreamStats struct {
	// Observed is the number of arrivals processed (resumed runs include
	// the arrivals consumed before the checkpoint).
	Observed int64
	// Accepted counts admitted events (in-order plus late-within-bound).
	Accepted int64
	// Late counts admitted events that arrived behind the frontier.
	Late int64
	// Duplicates counts discarded exact-duplicate arrivals.
	Duplicates int64
	// Dropped counts arrivals behind the watermark, dropped as too late.
	Dropped int64
	// Revisions counts re-deliveries of already-emitted windows caused by
	// late events.
	Revisions int64
	// Checkpoints counts snapshots written.
	Checkpoints int64
}

// String renders the stats as a one-line report.
func (s StreamStats) String() string {
	return fmt.Sprintf("observed=%d accepted=%d late=%d duplicates=%d dropped=%d revisions=%d checkpoints=%d",
		s.Observed, s.Accepted, s.Late, s.Duplicates, s.Dropped, s.Revisions, s.Checkpoints)
}

// StreamResult is the outcome of a streaming run: the amalgamated
// recognition (identical to what Run over the in-order, deduplicated,
// within-bound stream would produce) plus the disorder statistics.
type StreamResult struct {
	*Recognition
	Stats StreamStats
}

// windowSlot is the per-window book-keeping of a streaming run: the latest
// delivered evaluation of an emitted window, its revision counter, and the
// delta state that evaluation captured.
type windowSlot struct {
	revision int
	eval     windowEval
	// delta is the interval/act state carried out of the slot's latest
	// evaluation (emission or revision). A revision of the slot installs
	// from it or replays it for every time-point but the late event's; the
	// emission of the next slot replays it for the overlap. Held only while
	// the slot is revisable or the last one emitted (see advanceFinal); nil
	// means evaluate in full.
	delta *deltaState
}

// streamRun is the mutable state of one streaming recognition run.
type streamRun struct {
	eng       *Engine
	opts      StreamOptions
	tl        *timeline
	reorder   *stream.Reorder
	slots     []windowSlot
	emitted   int // slots[:emitted] have been delivered at least once
	consumed  int // arrivals fully processed (for checkpoint resume)
	sinceCkpt int
	// final is the revision cursor: slots[:final] are emitted and have a
	// query time at or below the watermark, so no admissible arrival can
	// touch them again. The watermark never moves back, so neither does the
	// cursor, and every per-arrival scan starts from it.
	final int
	// frozen is the checkpoint encoding of slots[:frozenN], as it stands in
	// the payload's "slots" array; frozenN trails final and only a checkpoint
	// write advances it (see encodeSnapshot). A restored run starts with
	// neither and re-encodes its restored slots as the cursor passes them.
	frozen  []byte
	frozenN int
	// slotVisits counts the slots the per-arrival scans (revise,
	// advanceFinal) looked at; the soak test pins it per arrival.
	slotVisits int64
	// deltaOn caches the engine-level enablement decision of the delta layer.
	deltaOn  bool
	stats    StreamStats
	warnings []Warning
	span     *telemetry.Span
	obs      *streamObs
	ranStart bool // run_start has been journalled
	fn       func(WindowResult) error
}

// RunStream performs windowed recognition over an arrival-ordered stream
// that may be out of order, duplicated, or late, and returns the
// amalgamated result plus disorder statistics.
//
// Events are admitted through a bounded-delay reorder buffer (StreamOptions
// .MaxDelay). A window is first evaluated and delivered to fn as soon as
// the event-time frontier passes its query time; a late event within the
// bound re-evaluates the windows it affects (and any downstream windows
// whose inertia carry-over changes) and re-delivers each changed window
// with an incremented WindowResult.Revision and the retraction diff.
// Events older than the bound are counted and dropped. For any
// arrival-order permutation of a stream in which no event is displaced
// beyond MaxDelay, the final Recognition is identical to Run over the
// in-order stream.
//
// With CheckpointPath set, a crash-safe snapshot is written atomically
// every CheckpointEvery windows; ResumeStream continues such a run so that
// its final output is byte-identical to an uninterrupted one. fn may be
// nil when only the final result matters.
func (e *Engine) RunStream(events stream.Stream, opts StreamOptions, fn func(WindowResult) error) (*StreamResult, error) {
	r, empty, err := e.newStreamRunner(events, opts, fn)
	if err != nil {
		return nil, err
	}
	if empty {
		return &StreamResult{Recognition: &Recognition{byKey: map[string]intervals.List{}, fvps: map[string]*lang.Term{}}}, nil
	}
	return r.feed(events)
}

// planStream is the one check of a streaming run's options: the time-line
// plan, a non-negative MaxDelay and a non-negative CheckpointEvery. events,
// when the caller has the whole stream, supply the time-line bounds
// RunOptions leaves open. empty is true for the degenerate whole-stream
// time-line over no events.
func planStream(events stream.Stream, opts StreamOptions) (tl *timeline, empty bool, err error) {
	if opts.MaxDelay < 0 {
		return nil, false, fmt.Errorf("rtec: negative max delay %d", opts.MaxDelay)
	}
	if opts.CheckpointEvery < 0 {
		return nil, false, fmt.Errorf("rtec: negative checkpoint cadence %d", opts.CheckpointEvery)
	}
	return planTimeline(events, opts.RunOptions)
}

// newStreamRunner plans the run (see planStream).
func (e *Engine) newStreamRunner(events stream.Stream, opts StreamOptions, fn func(WindowResult) error) (*StreamRunner, bool, error) {
	tl, empty, err := planStream(events, opts)
	if err != nil || empty {
		return nil, empty, err
	}
	tel := e.opts.Telemetry
	st := &streamRun{
		eng:     e,
		opts:    opts,
		tl:      tl,
		reorder: stream.NewReorder(opts.MaxDelay),
		slots:   make([]windowSlot, tl.n),
		deltaOn: !e.opts.DisableDelta && !e.opts.DisableCache,
		fn:      fn,
		span: tel.Span("rtec.run",
			telemetry.String("mode", "stream"),
			telemetry.Int("events", int64(len(events))),
			telemetry.Int("window", tl.window), telemetry.Int("slide", tl.slide),
			telemetry.Int("start", tl.start), telemetry.Int("end", tl.end),
			telemetry.Int("max_delay", opts.MaxDelay)),
	}
	st.obs = newStreamObs(tel, opts.Journal)
	tel.Logger().Debug("streaming recognition run",
		"component", "rtec", "events", len(events),
		"window", tl.window, "slide", tl.slide, "start", tl.start, "end", tl.end,
		"windows", tl.n, "fluents", len(e.order), "max_delay", opts.MaxDelay)
	return &StreamRunner{st: st}, false, nil
}

// feed ingests the arrivals after the resume point and finishes the run.
func (r *StreamRunner) feed(events stream.Stream) (*StreamResult, error) {
	defer r.Abort() // releases the runner on an error path; a no-op after Finish
	if r.st.consumed > len(events) {
		return nil, fmt.Errorf("rtec: checkpoint consumed %d arrivals but the stream has only %d", r.st.consumed, len(events))
	}
	for _, e := range events[r.st.consumed:] {
		if err := r.Ingest(e); err != nil {
			return nil, err
		}
	}
	return r.Finish()
}

// finish ends the run: it evaluates and delivers the windows the frontier
// never reached (the events still buffered in the reorder buffer are part of
// those evaluations — a stream ending before the watermark passes them must
// not lose them), amalgamates the result and journals the end of the run.
func (st *streamRun) finish() (*StreamResult, error) {
	for st.emitted < len(st.slots) {
		if err := st.emitNext(); err != nil {
			return nil, err
		}
	}
	res := st.finalise()
	if err := st.journalRunEnd(); err != nil {
		return nil, err
	}
	return res, nil
}

// ingest processes one arrival: admission, revision of emitted windows a
// late event invalidates, emission of windows the frontier passed, pruning,
// and checkpointing.
func (st *streamRun) ingest(e stream.Event) error {
	tel := st.eng.opts.Telemetry
	verdict := st.reorder.Push(e)
	if err := st.observeAdmission(e, verdict); err != nil {
		return err
	}
	switch verdict {
	case stream.Admitted:
		st.obs.ingested.Inc()
	case stream.TooLate:
		tel.Counter("rtec.dropped_events").Inc()
	case stream.Duplicate:
		tel.Counter("rtec.duplicate_events").Inc()
	case stream.AdmittedLate:
		st.obs.ingested.Inc()
		tel.Counter("rtec.late_events").Inc()
		if err := st.revise(e.Time); err != nil {
			return err
		}
	}

	// Deliver every window whose query time the frontier has now passed.
	for st.emitted < len(st.slots) {
		frontier, ok := st.reorder.Frontier()
		if !ok || frontier < st.tl.q(st.emitted) {
			break
		}
		if err := st.emitNext(); err != nil {
			return err
		}
	}
	st.prune()
	st.consumed++
	if st.opts.CheckpointPath != "" {
		every := st.opts.CheckpointEvery
		if every <= 0 {
			every = 1
		}
		if st.sinceCkpt >= every {
			// Reset before the write, so the cadence snapshot itself records
			// since_ckpt=0 — what a restore must start the next cadence from.
			st.sinceCkpt = 0
			if err := st.writeCheckpoint(); err != nil {
				return err
			}
		}
	}
	return nil
}

// prevOpenInto returns the inertia carry-over entering window i: the open
// simple FVPs computed by window i-1, or none for the first window.
func (st *streamRun) prevOpenInto(i int) map[string]*lang.Term {
	if i == 0 {
		return map[string]*lang.Term{}
	}
	return st.slots[i-1].eval.nextOpen
}

// evalSlot evaluates window i over the currently admitted events, through
// the delta layer: prev (when there is one) is replayed for every time-point
// outside base and outside whatever the dependency diffs dirty, and the state
// the evaluation captured is kept on the slot. With the delta layer off, or
// without prev, it is a full evaluation.
func (st *streamRun) evalSlot(i int, prev *deltaState, base intervals.List) windowEval {
	var dctx *deltaCtx
	if st.deltaOn {
		dctx = &deltaCtx{capture: true}
		if prev != nil {
			dctx.prev, dctx.base = prev, base
		}
	}
	ws, we := st.tl.windowStart(i), st.tl.q(i)
	winEvents := indexWindow(st.reorder.Buffered().Window(ws, we))
	ev := st.eng.evalWindow(winEvents, ws, we, st.tl.nextWindowStart(i), st.prevOpenInto(i), st.warnSink(), st.span, dctx, sharedWindow{})
	if dctx != nil {
		st.slots[i].delta = dctx.next
	}
	return ev
}

// emitNext evaluates and delivers the next unemitted window (revision 0).
// It slides the previous slot's carried state: the tail the previous window
// never saw is dirty, the overlap replays.
func (st *streamRun) emitNext() error {
	i := st.emitted
	t0 := time.Now() //rtecvet:allow telemetry timer: real end-to-end window latency
	var prev *deltaState
	var base intervals.List
	if i > 0 {
		if prev = st.slots[i-1].delta; prev != nil {
			base = intervals.List{{Start: prev.we, End: st.tl.q(i)}}
		}
	}
	st.slots[i].eval = st.evalSlot(i, prev, base)
	if i > 0 && i-1 < st.final {
		st.slots[i-1].delta = nil // final, and no longer the slide's source
	}
	st.emitted++
	st.sinceCkpt++
	if err := st.deliver(i, nil); err != nil {
		return err
	}
	return st.observeDelivery(i, nil, nil, time.Since(t0))
}

// revise re-evaluates the emitted windows a late event at time t
// invalidates: every emitted window containing t (a contiguous run, since
// window starts and query times are both non-decreasing), then downstream
// emitted windows for as long as the inertia carry-over keeps changing.
// Windows whose recognition actually changed are re-delivered with an
// incremented revision and the retraction diff.
//
// A revision is a delta evaluation of the slot against its own carried
// state — the slide with ws' = ws and we' = we: in a window containing t
// only the time-point [t, t+1) is dirty; a downstream window re-evaluated
// for its changed carry-over has no dirty base at all, and the dependency
// diff spreads the dirt from wherever the new inertia changed a fluent's
// intervals. Fluents whose inputs did not change install their carried
// lists. A slot without carried state (delta off, or cold after a resume)
// evaluates in full and captures, so the next revision is warm.
func (st *streamRun) revise(t int64) error {
	tel := st.eng.opts.Telemetry
	carryChanged := false
	for i := st.final; i < st.emitted; i++ {
		st.slotVisits++
		ws := st.tl.windowStart(i)
		direct := ws <= t && t < st.tl.q(i)
		if !direct && !carryChanged {
			if ws > t {
				break // windows from here on start after t: none contain it
			}
			continue // window ends at or before t; scan on
		}
		prev := st.slots[i].eval
		t0 := time.Now() //rtecvet:allow telemetry timer: real end-to-end window latency
		var base intervals.List
		if direct {
			base = intervals.List{{Start: t, End: t + 1}}
		}
		ev := st.evalSlot(i, st.slots[i].delta, base)
		carryChanged = !ev.sameOpen(prev)
		st.slots[i].eval = ev // keep the carry-over current even when the output is unchanged
		if ev.sameRecognised(prev) {
			continue
		}
		retracted := ev.retractionsAgainst(prev)
		st.slots[i].revision++
		st.stats.Revisions++
		tel.Counter("rtec.revisions").Inc()
		if err := st.deliver(i, retracted); err != nil {
			return err
		}
		if err := st.observeDelivery(i, &prev, retracted, time.Since(t0)); err != nil {
			return err
		}
	}
	return nil
}

// deliver invokes fn with the latest evaluation of window i.
func (st *streamRun) deliver(i int, retracted map[string]intervals.List) error {
	if st.fn == nil {
		return nil
	}
	ws, we := st.tl.windowStart(i), st.tl.q(i)
	if we <= ws {
		return nil // degenerate empty window: nothing to report
	}
	return st.fn(WindowResult{
		WindowStart: ws, QueryTime: we,
		Recognised: st.slots[i].eval.recognised,
		FVPs:       st.slots[i].eval.fvps,
		Revision:   st.slots[i].revision,
		Retracted:  retracted,
	})
}

// advanceFinal moves the revision cursor over the emitted slots whose query
// time the watermark w has reached, and releases their carried delta state:
// nothing can revise them any more. The last emitted slot keeps its state
// until the next emission has slid it (emitNext releases it then), so the
// slots holding state are the revisable ones plus at most one.
func (st *streamRun) advanceFinal(w int64) {
	for st.final < st.emitted && st.tl.q(st.final) <= w {
		st.slotVisits++
		if st.final < st.emitted-1 {
			st.slots[st.final].delta = nil
		}
		st.final++
	}
}

// prune advances the revision cursor to the watermark and forgets the
// admitted events below the horizon — the time-point below which nothing can
// change any more: the start of the earliest window that is still revisable
// (its query time is ahead of the watermark) or still unemitted, capped at
// the watermark. Arrivals older than the watermark are rejected as too late
// first, so forgetting those events never changes an admission or
// deduplication decision.
func (st *streamRun) prune() {
	w, ok := st.reorder.Watermark()
	if !ok {
		return
	}
	st.advanceFinal(w)
	h := st.tl.end
	if st.final < len(st.slots) {
		h = st.tl.windowStart(st.final)
	}
	if h > w {
		h = w
	}
	st.reorder.Drop(h)
}

// warnSink returns the destination for runtime warnings: every evaluation
// and revision appends what it raised, and finalise lists each once.
func (st *streamRun) warnSink() *[]Warning { return &st.warnings }

// finalise amalgamates the latest evaluation of every window into the
// final Recognition — identical to what the in-order run produces, because
// after the last revision every window has been evaluated over exactly the
// admitted events of its range with a consistent inertia chain.
func (st *streamRun) finalise() *StreamResult {
	rec := &Recognition{
		Start: st.tl.start, End: st.tl.end,
		byKey: map[string]intervals.List{},
		fvps:  map[string]*lang.Term{},
	}
	for _, slot := range st.slots {
		for key, clipped := range slot.eval.recognised {
			rec.byKey[key] = intervals.Union(rec.byKey[key], clipped)
			if _, ok := rec.fvps[key]; !ok {
				rec.fvps[key] = slot.eval.fvps[key]
			}
		}
	}
	rec.Warnings = uniqueWarnings(st.warnings)
	rs := st.reorder.Stats()
	st.stats.Observed = rs.Observed
	st.stats.Accepted = rs.Accepted
	st.stats.Late = rs.Late
	st.stats.Duplicates = rs.Duplicates
	st.stats.Dropped = rs.Dropped
	return &StreamResult{Recognition: rec, Stats: st.stats}
}
