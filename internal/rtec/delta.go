package rtec

import (
	"rtecgen/internal/intervals"
	"rtecgen/internal/lang"
	"rtecgen/internal/stream"
	"rtecgen/internal/telemetry"
)

// This file implements incremental sliding-window evaluation: the delta
// layer. Adjacent windows share most of their events (window=3600/slide=900
// re-derives ~75% of each window's intervals from scratch), so each window
// evaluation captures a carry-over state — per simple-fluent rule, the acts
// (FVP occurrences and runtime warnings) every anchor event produced, keyed
// by anchor time, plus every fluent's unclipped interval lists — and the
// next slide replays the cached acts for anchor times that cannot have
// changed, re-deriving only the dirty ones. The batch loop attaches the layer
// only to windows a neighbour overlaps (RunPrepared): a window that merely
// tumbles has no reader for its state and captures nothing.
//
// A time-point t of the new window [ws', q') is dirty for a fluent when
//   - t lies in the slide-admitted tail [q, q') the previous window never
//     saw, or
//   - a body dependency's intervals changed at t (the per-fluent changed
//     regions, diffed against the carried lists after each stratum, propagate
//     dirtiness down the stratified hierarchy), or
//   - there is no carried state (first window, cold resume): then
//     everything is dirty.
//
// A revision forced by a late event at t is the same evaluation with the
// window as its own predecessor (ws' = ws, q' = q): the streaming run keeps
// each revisable slot's state, the base dirt is the single time-point
// [t, t+1), and the dependency diff does the rest (see streamRun.revise).
//
// Correctness rests on a static eligibility analysis (deltaEligible in
// engine.go): a simple fluent's acts may be replayed only when every body
// condition of every rule is evaluated at the anchor time itself, so an
// anchor event's derivation depends only on the events at its time-point and
// the dependency intervals' membership at that time-point — both clean by
// construction at a clean t. Statically determined fluents are always fully
// recomputed (their cost is interval algebra over already-computed lists,
// not event-driven search), but their changed regions still propagate.
// Because the replayed acts are exactly the acts the sequential evaluation
// would produce, in the same order (events are time-sorted and a time-point
// is either entirely clean or entirely dirty), recognition output, warning
// order, journals and checkpoints are byte-identical to full re-evaluation —
// Options.DisableDelta retains the from-scratch path as the differential
// oracle.

// listEntry is one carried fluent-value pair: the FVP term and its unclipped
// maximal intervals as the window evaluation computed them.
type listEntry struct {
	fvp  *lang.Term
	list intervals.List
}

// fluentDelta is the carried state of one fluent after a window evaluation.
type fluentDelta struct {
	// acts holds, per rule slot (initiatedAt rules first, then terminatedAt
	// rules, in definition order), the acts each anchor time produced. Nil
	// for SD fluents and delta-ineligible simple fluents.
	acts []map[int64][]act
	// lists holds the fluent's unclipped interval lists keyed by interned
	// FVP, for diffing against the next window's output.
	lists map[lang.InternID]listEntry
}

// deltaState is the carry-over of one evaluated window, consumed by the next
// slide and by revisions of the window itself. It is a pure cache: losing it
// costs one full re-evaluation, never correctness.
type deltaState struct {
	ws, we  int64 // the window this state describes
	fluents map[string]*fluentDelta
}

// deltaCtx threads the delta layer through one window evaluation.
type deltaCtx struct {
	prev    *deltaState    // carried state of the previous window, or of this window's previous evaluation; nil → full evaluation
	capture bool           // build the carry-over for the next slide or revision
	base    intervals.List // region dirty regardless of dependencies (the slide-admitted tail, or a late event's time-point)
	next    *deltaState    // the captured state, populated during evaluation

	// Unit counters for the rtec.delta.* instruments: anchor events whose
	// cached acts were replayed, anchor events re-derived, and cached anchor
	// times dropped at the expired left edge.
	reused, dirty, expired int64
}

// attach wires the context into a window state before evaluate().
func (d *deltaCtx) attach(w *windowState) {
	w.delta = d
	w.changed = map[string]intervals.List{}
	if d.capture {
		d.next = &deltaState{ws: w.ws, we: w.we, fluents: map[string]*fluentDelta{}}
	}
}

// flush records the window's delta counters and the reuse-ratio gauge.
func (d *deltaCtx) flush(tel *telemetry.Telemetry) {
	tel.Counter("rtec.delta.reused").Add(d.reused)
	tel.Counter("rtec.delta.dirty").Add(d.dirty)
	tel.Counter("rtec.delta.expired").Add(d.expired)
	if total := d.reused + d.dirty; total > 0 {
		tel.Gauge("rtec.delta.reuse_ratio").Set(d.reused * 100 / total)
	}
}

// beginFluentDelta prepares the per-fluent delta state before a fluent is
// evaluated: the capture target, and — when the carried state covers this
// fluent — the dirty region that decides which anchor times replay.
func (w *windowState) beginFluentDelta(def *fluentDef) {
	w.curReuse, w.curDirty, w.curPrev, w.curNext = false, nil, nil, nil
	d := w.delta
	if d == nil {
		return
	}
	if d.capture {
		w.curNext = &fluentDelta{lists: map[lang.InternID]listEntry{}}
		if def.kind == Simple && def.deltaEligible {
			w.curNext.acts = make([]map[int64][]act, len(def.inits)+len(def.terms))
			for i := range w.curNext.acts {
				w.curNext.acts[i] = map[int64][]act{}
			}
		}
		d.next.fluents[def.ind] = w.curNext
	}
	if d.prev == nil {
		return
	}
	prev := d.prev.fluents[def.ind]
	if prev == nil {
		return
	}
	w.curPrev = prev
	if def.kind == Simple && def.deltaEligible && len(prev.acts) == len(def.inits)+len(def.terms) {
		dirty := d.base
		for _, dep := range def.sortedDeps {
			if ch := w.changed[dep]; len(ch) > 0 {
				dirty = intervals.Union(dirty, ch)
			}
		}
		w.curDirty = dirty
		w.curReuse = true
	}
}

// endFluentDelta captures the fluent's freshly computed lists and diffs them
// against the carried ones: the symmetric difference, clipped to the window,
// is the changed region that dirties dependent fluents higher up the
// hierarchy. The diff-driven propagation is what makes inter-fluent reuse
// airtight: any divergence in a dependency's output — whatever caused it —
// forces dependents to re-derive exactly where it happened.
func (w *windowState) endFluentDelta(def *fluentDef) {
	d := w.delta
	if d == nil {
		return
	}
	if !d.capture && w.curPrev == nil {
		return
	}
	cur := w.curNext
	if cur == nil {
		cur = &fluentDelta{lists: map[lang.InternID]listEntry{}}
	}
	for _, ent := range w.byFluent[def.pred] {
		cur.lists[ent.id] = listEntry{fvp: ent.fvp, list: ent.list}
	}
	if w.curPrev == nil {
		return
	}
	var ch intervals.List
	for id, ce := range cur.lists {
		pe, ok := w.curPrev.lists[id]
		if !ok || !pe.list.Equal(ce.list) {
			ch = intervals.Union(ch, symDiff(pe.list, ce.list))
		}
	}
	for id, pe := range w.curPrev.lists {
		if _, ok := cur.lists[id]; !ok {
			ch = intervals.Union(ch, pe.list)
		}
	}
	if ch = intervals.Clip(ch, w.ws, w.we); len(ch) > 0 {
		w.changed[def.ind] = ch
	}
}

// symDiff returns the region where exactly one of the two lists holds.
func symDiff(a, b intervals.List) intervals.List {
	return intervals.Union(intervals.RelativeComplement(a, b), intervals.RelativeComplement(b, a))
}

// replaySimpleRule is the incremental counterpart of the runUnits call in
// evalSimpleRule: anchor events at clean times replay the previous window's
// cached acts, anchor events at dirty times re-derive on the worker pool.
// Events are time-sorted and a time-point is either entirely clean or
// entirely dirty, so walking the events in order reproduces the exact act
// sequence of the sequential evaluation.
func (w *windowState) replaySimpleRule(events []stream.Event, prevActs map[int64][]act, rec map[int64][]act, unit func(int, *ruleEval), apply func(act)) {
	d := w.delta
	dirty := w.curDirty
	recompute := make([]int, 0, len(events))
	for i, ev := range events {
		if dirty.Contains(ev.Time) {
			recompute = append(recompute, i)
		}
	}
	var slots [][]act
	if len(recompute) > 0 {
		slots = w.runUnitsCollect(len(recompute),
			func(k int) uint64 { return eventEntity(events[recompute[k]]) },
			func(k int, re *ruleEval) { unit(recompute[k], re) })
	}
	k := 0
	for i := 0; i < len(events); {
		t := events[i].Time
		j := i
		for j < len(events) && events[j].Time == t {
			j++
		}
		if dirty.Contains(t) {
			for ; k < len(slots) && recompute[k] < j; k++ {
				for _, a := range slots[k] {
					if rec != nil {
						rec[t] = append(rec[t], a)
					}
					apply(a)
				}
			}
			d.dirty += int64(j - i)
		} else {
			acts := prevActs[t]
			if rec != nil && len(acts) > 0 {
				rec[t] = acts
			}
			for _, a := range acts {
				apply(a)
			}
			d.reused += int64(j - i)
		}
		i = j
	}
	for t := range prevActs {
		if t < w.ws {
			d.expired++
		}
	}
}

// timeLocalRule decides static delta eligibility for one simple-fluent rule:
// every temporal body condition (happensAt or holdsAt, positive or negated)
// must be evaluated at the rule's own anchor time variable, so the rule's
// derivation at an anchor event depends only on that time-point. Builtins
// and atemporal background conditions are pure and always safe; a holdsFor
// condition (invalid in a simple rule, warned at runtime) and any condition
// at a different or non-variable time-point disqualify the rule.
func timeLocalRule(c *lang.Clause) bool {
	anchorIdx := -1
	for i, l := range c.Body {
		if !l.Neg && l.Atom.Functor == "happensAt" && len(l.Atom.Args) == 2 {
			anchorIdx = i
			break
		}
	}
	if anchorIdx < 0 {
		return false
	}
	tv := c.Body[anchorIdx].Atom.Args[1]
	if tv.Kind != lang.Var {
		return false
	}
	for _, l := range c.Body {
		switch l.Atom.Functor {
		case "happensAt", "holdsAt":
			if len(l.Atom.Args) != 2 {
				return false
			}
			if ta := l.Atom.Args[1]; ta.Kind != lang.Var || ta.Functor != tv.Functor {
				return false
			}
		case "holdsFor":
			return false
		}
	}
	return true
}
