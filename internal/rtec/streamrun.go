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
	// are admitted and mark the affected windows for revision (see
	// RunStream); older events are counted and dropped. Zero tolerates no
	// disorder (out-of-order events are dropped), which over an in-order
	// stream reproduces Run exactly.
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
	// trail with a hole is worse than no run. The runner flushes it (see
	// journal.Writer.Flush) before each checkpoint write starts, before a
	// suspend checkpoint and at the end of the run.
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

// StreamResult is the outcome of a streaming run: the amalgamated
// recognition (identical to what Run over the in-order, deduplicated,
// within-bound stream would produce) plus the disorder statistics.
type StreamResult struct {
	*Recognition
	Stats StreamStats
}

// windowSlot is the per-window book-keeping of a run: the latest
// delivered evaluation of an emitted window (until the revision cursor
// passes it, see passFinal), its revision counter, the delta state that
// evaluation captured, the event index of a window that has been revised,
// and its pending marks.
type windowSlot struct {
	revision int
	eval     windowEval
	// events is the slot's event index once a late event or a revision has
	// built it from the reorder buffer; each later late event in the window is
	// inserted into it in place (windowIndex.insert), so it stays what
	// indexWindow would give over the buffer's window. Held only while the
	// slot is revisable (see advanceFinal); an emission keeps no index, and a
	// checkpoint stores none, so a resumed slot rebuilds it.
	events *windowIndex
	// marks are the times of the late events admitted into the window since
	// its latest evaluation: the dirty base of its next revision (see flush).
	marks []int64
	// delta is the interval/act state carried out of the slot's latest
	// evaluation (emission or revision). A revision of the slot installs
	// from it or replays it for every time-point but its marked ones; the
	// emission of the next slot replays it for the overlap. Held only while
	// the slot is revisable or the last one emitted (see advanceFinal); nil
	// means evaluate in full.
	delta *deltaState
}

// streamRun is the mutable state of one recognition run, streamed or batch
// (RunPrepared: no reorder buffer, windows read from a Prepared) — the one
// loop that drives evalWindow.
type streamRun struct {
	eng       *Engine
	opts      StreamOptions
	tl        *timeline
	reorder   *stream.Reorder // nil in a batch run
	prepared  *Prepared       // a batch run's window source; nil in a streaming run
	shared    *sharedRun      // a batch run's view of its Prepared's fluent table; nil: no sharing
	slots     []windowSlot
	emitted   int // slots[:emitted] have been delivered at least once
	consumed  int // arrivals fully processed (for checkpoint resume)
	sinceCkpt int
	// journalSeq is the journal position the last checkpoint recorded.
	journalSeq int64
	// final is the revision cursor: slots[:final] are emitted and have a
	// query time at or below the watermark, so no admissible arrival can
	// touch them again. The watermark never moves back, so neither does the
	// cursor, and every per-arrival scan starts from it.
	final int
	// fold is the amalgamation of slots[:final]: each slot is folded into it
	// as the cursor passes, and its evaluation released (see passFinal).
	fold amalgam
	// writer puts cadence checkpoints on disk behind the consumer.
	writer ckptWriter
	// slotVisits counts the slots the per-arrival scans (mark, flush,
	// advanceFinal) looked at; the soak test pins it per arrival.
	slotVisits int64
	// deltaOn caches the engine-level enablement decision of the delta layer.
	deltaOn  bool
	stats    StreamStats
	span     *telemetry.Span
	obs      *streamObs // nil in a batch run, which observes no arrivals
	ranStart bool       // run_start has been journalled
	fn       func(WindowResult) error
}

// RunStream performs windowed recognition over an arrival-ordered stream
// that may be out of order, duplicated, or late, and returns the
// amalgamated result plus disorder statistics.
//
// Events are admitted through a bounded-delay reorder buffer (StreamOptions
// .MaxDelay). A window is first evaluated and delivered to fn as soon as
// the event-time frontier passes its query time; a late event within the
// bound marks the windows it affects, and before the next window is
// delivered (or once the watermark reaches a marked window, or at the end of
// the stream) the marked windows and any downstream windows whose inertia
// carry-over changes are re-evaluated, each changed window re-delivered with
// an incremented WindowResult.Revision and the retraction diff.
// Events older than the bound are counted and dropped. For any
// arrival-order permutation of a stream in which no event is displaced
// beyond MaxDelay, the final Recognition is identical to Run over the
// in-order stream.
//
// With CheckpointPath set, a crash-safe snapshot is written atomically
// every CheckpointEvery windows; ResumeStreamRunner continues such a run
// so that its final output is byte-identical to an uninterrupted one. fn
// may be nil when only the final result matters.
func (e *Engine) RunStream(events stream.Stream, opts StreamOptions, fn func(WindowResult) error) (*StreamResult, error) {
	r, empty, err := e.newStreamRunner(events, opts, fn)
	if err != nil {
		return nil, err
	}
	if empty {
		return &StreamResult{Recognition: newRecognition(0, 0)}, nil
	}
	defer r.Abort() // releases the runner on an error path; a no-op after Finish
	for _, ev := range events {
		if err := r.Ingest(ev); err != nil {
			return nil, err
		}
	}
	return r.Finish()
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
		fold:    newAmalgam(),
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

// finish ends the run: it evaluates and delivers the windows the frontier
// never reached (the events still buffered in the reorder buffer are part of
// those evaluations — a stream ending before the watermark passes them must
// not lose them), applies the marks still pending, waits for the checkpoint
// write in flight, amalgamates the result, journals the end of the run and
// flushes the journal.
func (st *streamRun) finish() (*StreamResult, error) {
	err := st.emitRest()
	// The last cadence write ran behind the evaluation above; run_end is
	// journalled only once it is on disk.
	if werr := st.writer.wait(); err == nil {
		err = werr
	}
	if err != nil {
		return nil, err
	}
	res := st.finalise()
	if err := st.journalRunEnd(); err != nil {
		return nil, err
	}
	if err := st.obs.journal.Flush(); err != nil {
		return nil, err
	}
	return res, nil
}

// emitRest delivers every window not yet emitted and applies the pending
// marks.
func (st *streamRun) emitRest() error {
	for st.emitted < len(st.slots) {
		if err := st.emitNext(); err != nil {
			return err
		}
	}
	return st.flush()
}

// ingest processes one arrival: admission, marking the emitted windows a
// late event invalidates, emission of windows the frontier passed, pruning,
// and checkpointing.
func (st *streamRun) ingest(e stream.Event) error {
	tel := st.eng.opts.Telemetry
	verdict, text := st.reorder.Push(e)
	if err := st.observeAdmission(e, verdict, text); err != nil {
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
		st.mark(e)
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
	if err := st.prune(); err != nil {
		return err
	}
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

// evalSlot evaluates window i over the admitted events through the delta
// layer. The events come indexed from the Prepared's window in a batch run,
// from the slot's retained index in a revision (see mark), or else from the
// reorder buffer, indexed for this one evaluation. prev, when set, is replayed
// outside base and whatever the dependency diffs dirty. The capture rule: with
// the delta layer on, a slot captures iff something can read its state — an
// overlapping successor (nws < we), or a revision, which only a reorder buffer
// makes; a batch window that merely tumbles evaluates as under DisableDelta.
func (st *streamRun) evalSlot(i int, prev *deltaState, base intervals.List) windowEval {
	ws, we, nws := st.tl.windowStart(i), st.tl.q(i), st.tl.nextWindowStart(i)
	capture := st.deltaOn && (st.reorder != nil || nws >= 0 && nws < we)
	var dctx *deltaCtx
	if prev != nil || capture {
		dctx = &deltaCtx{capture: capture}
		if prev != nil {
			dctx.prev, dctx.base = prev, base
		}
	}
	winEvents := st.slots[i].events
	switch {
	case st.prepared != nil:
		winEvents = st.prepared.windows[i]
	case winEvents == nil:
		winEvents = indexWindow(st.reorder.Buffered().Window(ws, we))
	}
	ev := st.eng.evalWindow(winEvents, ws, we, nws, st.prevOpenInto(i), st.span, dctx, sharedWindow{run: st.shared, index: int32(i)})
	if dctx != nil {
		st.slots[i].delta = dctx.next
	}
	return ev
}

// emitNext evaluates and delivers the next unemitted window (revision 0),
// after applying the pending marks: the emission slides the previous slot's
// carried state and reads its inertia carry-over, so both must be current.
// The tail the previous window never saw is dirty, the overlap replays.
func (st *streamRun) emitNext() error {
	if err := st.flush(); err != nil {
		return err
	}
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

// mark records a late event e at time t in every emitted, revisable window
// containing it (a contiguous run, since window starts and query times are
// both non-decreasing): t joins the slot's marks, and e its retained event
// index — built from the reorder buffer, which already holds e, if the slot
// has none, inserted where indexWindow would put it otherwise. Nothing is
// evaluated until the next flush.
func (st *streamRun) mark(e stream.Event) {
	t := e.Time
	for i := st.final; i < st.emitted; i++ {
		st.slotVisits++
		ws, q := st.tl.windowStart(i), st.tl.q(i)
		if ws > t {
			break // windows from here on start after t: none contain it
		}
		if t >= q {
			continue // window ends at or before t; scan on
		}
		slot := &st.slots[i]
		if slot.events == nil {
			slot.events = indexWindow(st.reorder.Buffered().Window(ws, q))
		} else {
			slot.events.insert(st.reorder.Buffered(), e)
		}
		slot.marks = append(slot.marks, t)
	}
}

// flush applies the pending marks in one walk over the emitted windows: it
// re-evaluates every marked window once, then downstream windows for as
// long as the inertia carry-over keeps changing, and re-delivers the windows
// whose recognition actually changed with an incremented revision and the
// retraction diff. It runs before every emission, when the watermark reaches
// a marked window (advanceFinal), and at the end of the stream: points the
// arrival sequence sets, however the arrivals are batched (DESIGN.md §12
// bounds the re-deliveries of a window).
//
// A revision is a delta evaluation of the slot against its own carried
// state — the slide with ws' = ws and we' = we: the dirty base is the
// window's marks; a downstream window re-evaluated for its changed carry-over
// has no dirty base at all, and the dependency diff spreads the dirt from
// wherever the new inertia changed a fluent's intervals. Fluents whose inputs
// did not change install their carried lists. A slot without carried state
// (delta off, or cold after a resume) evaluates in full and captures, so the
// next revision is warm. Each re-evaluated slot reads its own retained event
// index (see mark), built here for a slot only the cascade reaches, and kept
// whether or not the delta layer is on.
func (st *streamRun) flush() error {
	tel := st.eng.opts.Telemetry
	carryChanged := false
	for i := st.final; i < st.emitted; i++ {
		st.slotVisits++
		slot := &st.slots[i]
		if slot.marks == nil && !carryChanged {
			continue
		}
		prev := slot.eval
		t0 := time.Now() //rtecvet:allow telemetry timer: real end-to-end window latency
		if slot.events == nil {
			slot.events = indexWindow(st.reorder.Buffered().Window(st.tl.windowStart(i), st.tl.q(i)))
		}
		base := make(intervals.List, len(slot.marks))
		for k, t := range slot.marks {
			base[k] = intervals.Interval{Start: t, End: t + 1}
		}
		slot.marks = nil
		ev := st.evalSlot(i, slot.delta, intervals.Normalize(base))
		carryChanged = !ev.sameOpen(prev)
		slot.eval = ev // keep the carry-over current even when the output is unchanged
		if ev.sameRecognised(prev) {
			continue
		}
		retracted := ev.retractionsAgainst(prev)
		slot.revision++
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
// time the watermark w has reached, folding each into the run's
// amalgamation (passFinal): nothing can revise them any more. A slot holding
// marks is flushed before the cursor passes it — a test on the slot itself,
// so a run resumed from a suspend checkpoint, whose restored slots carry
// their pending marks, flushes where an uninterrupted one does.
func (st *streamRun) advanceFinal(w int64) error {
	for st.final < st.emitted && st.tl.q(st.final) <= w {
		st.slotVisits++
		if st.slots[st.final].marks != nil {
			if err := st.flush(); err != nil {
				return err
			}
		}
		st.passFinal()
	}
	return nil
}

// prune advances the revision cursor to the watermark and forgets the
// admitted events below the horizon — the time-point below which nothing can
// change any more: the start of the earliest window that is still revisable
// (its query time is ahead of the watermark) or still unemitted, capped at
// the watermark. Arrivals older than the watermark are rejected as too late
// first, so forgetting those events never changes an admission or
// deduplication decision.
func (st *streamRun) prune() error {
	w, ok := st.reorder.Watermark()
	if !ok {
		return nil
	}
	if err := st.advanceFinal(w); err != nil {
		return err
	}
	h := st.tl.end
	if st.final < len(st.slots) {
		h = st.tl.windowStart(st.final)
	}
	if h > w {
		h = w
	}
	st.reorder.Drop(h)
	return nil
}

// amalgam is a running amalgamation of window evaluations, folded in window
// order: the union of every FVP's clipped intervals, the FVP term as first
// seen, and each warning once, where it first occurs.
type amalgam struct {
	byKey    map[string]intervals.List
	fvps     map[string]*lang.Term
	warnings []Warning
	seen     map[Warning]bool
}

func newAmalgam() amalgam {
	return amalgam{byKey: map[string]intervals.List{}, fvps: map[string]*lang.Term{}, seen: map[Warning]bool{}}
}

// add folds one window's evaluation in.
func (a *amalgam) add(ev windowEval) {
	for key, clipped := range ev.recognised {
		a.byKey[key] = intervals.Union(a.byKey[key], clipped)
		if _, ok := a.fvps[key]; !ok {
			a.fvps[key] = ev.fvps[key]
		}
	}
	a.addWarnings(ev.warnings)
}

// addWarnings appends the warnings not yet listed, in order.
func (a *amalgam) addWarnings(ws []Warning) {
	for _, w := range ws {
		if !a.seen[w] {
			a.seen[w] = true
			a.warnings = append(a.warnings, w)
		}
	}
}

// passFinal moves the revision cursor past slot final: the slot's
// evaluation is folded into the run's amalgamation and released, bar the
// inertia carry-over the next window reads (prevOpenInto), which the slot
// keeps until the cursor passes its successor. Its event index goes too, and
// its delta state unless it is the last slot emitted, whose state the next
// emission slides (emitNext releases it then). So the slots holding an
// evaluation are the revisable ones, those holding an index are revisable
// ones, and those holding delta state are the revisable ones plus at most
// one.
func (st *streamRun) passFinal() {
	i := st.final
	slot := &st.slots[i]
	st.fold.add(slot.eval)
	slot.eval = windowEval{nextOpen: slot.eval.nextOpen}
	if i > 0 {
		st.slots[i-1].eval.nextOpen = nil
	}
	slot.events = nil
	if i < st.emitted-1 {
		slot.delta = nil
	}
	st.final++
}

// amalgamate ends the run: the cursor passes the windows still revisable
// (nothing can revise them any more), and the fold is the run's Recognition.
// After a streaming run's last revision every window has been evaluated over
// exactly its admitted events with a consistent inertia chain, so this is the
// batch run's result, warnings included.
func (st *streamRun) amalgamate() *Recognition {
	for st.final < st.emitted {
		st.passFinal()
	}
	return &Recognition{Start: st.tl.start, End: st.tl.end, byKey: st.fold.byKey, fvps: st.fold.fvps, Warnings: st.fold.warnings}
}

// finalise amalgamates a streaming run's result and its disorder statistics.
func (st *streamRun) finalise() *StreamResult {
	rec := st.amalgamate()
	rs := st.reorder.Stats()
	st.stats.Observed = rs.Observed
	st.stats.Accepted = rs.Accepted
	st.stats.Late = rs.Late
	st.stats.Duplicates = rs.Duplicates
	st.stats.Dropped = rs.Dropped
	return &StreamResult{Recognition: rec, Stats: st.stats}
}
