package rtec

import (
	"maps"
	"slices"
	"sort"

	"rtecgen/internal/intervals"
	"rtecgen/internal/lang"
	"rtecgen/internal/telemetry"
)

// This file implements incremental window evaluation: the delta layer.
// Adjacent sliding windows share most of their events (window=3600/slide=900
// re-derives ~75% of each window's intervals from scratch), and a revision
// forced by late events re-evaluates a window in which a few time-points
// changed. Each window evaluation therefore captures a carry-over state — per
// fluent, what its evaluation stored and warned and the inertia input it saw;
// per simple-fluent rule, the acts (FVP occurrences and runtime warnings)
// every anchor event produced, keyed by anchor time — and the next evaluation
// re-derives only what may have changed. A window captures only when its
// state has a reader — an overlapping successor, or a revision (the capture
// rule, streamRun.evalSlot): a batch window that merely tumbles captures
// nothing. A run over a Prepared's fluent table does without the layer
// altogether, and installs from the table instead.
//
// A time-point t of the new window [ws', q') is dirty for a fluent when
//   - t lies in the slide-admitted tail [q, q') the previous window never
//     saw, or
//   - a body dependency's intervals changed at t (the per-fluent changed
//     regions, diffed against the carried lists after each fluent, propagate
//     dirtiness down the stratified hierarchy), or
//   - there is no carried state (first window, cold resume): then
//     everything is dirty.
//
// A delta-eligible simple fluent (deltaEligible in engine.go: every body
// condition of every rule is evaluated at the anchor time itself and names
// the fluent it reads, so an anchor event's derivation depends only on the
// events at its time-point and the dependency intervals' membership there —
// both clean by construction at a clean t) re-derives the anchor events at its dirty time-points, inline,
// and replays the cached acts everywhere else. Because the replayed acts are
// exactly the acts the sequential evaluation would produce, in the same order
// (events are time-sorted and a time-point is either entirely clean or
// entirely dirty), recognition output, warning order, journals and
// checkpoints are byte-identical to full re-evaluation —
// Options.DisableDelta retains the from-scratch path as the differential
// oracle.
//
// A revision forced by late events is the same evaluation with the window as
// its own predecessor (ws' = ws, q' = q): the streaming run keeps each
// revisable slot's state, a late event at t marks the time-point [t, t+1) in
// the slots containing it, the base dirt of a slot's next revision is the
// union of its marks, and the dependency diff does the rest (see
// streamRun.mark and streamRun.flush).
// There the carried state describes this very window, and a fluent's output
// in a window is a pure function of its inputs, so a fluent whose inputs did
// not change installs what it stored last time instead of evaluating:
//   - a statically determined fluent whose conditions all name their fluent
//     (namedReads in engine.go; holdsFor(F=V, I) with F bound at run time can
//     read any fluent's lists) reads only its dependencies' lists (SD bodies
//     hold no happensAt/holdsAt, checkSDRule), so it installs when none of
//     them has a changed region;
//   - a delta-eligible simple fluent reads the acts of its rules per anchor
//     time and the inertia FVPs entering the window, so it installs when the
//     acts re-derived at its dirty time-points equal the cached ones and the
//     inertia input is the one it saw.
// Everything else (a slide, changed inputs, an ineligible simple fluent, a
// fluent with no carried state) evaluates, by replay where it can, and is
// diffed. Every revision, however many of its fluents installed, clips its
// lists into a fresh windowEval (evalWindow), which streamRun.flush compares
// with the slot's previous one to decide whether to re-deliver the window and
// whether its inertia carry-over changed.

// noInternID stands for an intern ID not known where the FVP is handed on: in
// a listEntry published for engines other than the one that computed it (the
// Prepared's fluent table, see evalFluent; intern IDs are per engine), or in
// the act of a unit whose head was new to the interner (derived). The
// receiver interns the FVP itself.
const noInternID lang.InternID = -1

// listEntry is one recorded fluent-value pair: the FVP term, its intern ID
// in the recording engine (or noInternID) and its unclipped maximal intervals
// as the window evaluation computed them.
type listEntry struct {
	fvp  *lang.Term
	id   lang.InternID
	list intervals.List
}

// entriesOf records what a fluent's evaluation stored, in store order — the
// order higher strata and the inertia hand-off iterate byFluent in.
func entriesOf(stored []*cacheEntry) []listEntry {
	out := make([]listEntry, len(stored))
	for i, ent := range stored {
		out[i] = listEntry{fvp: ent.fvp, id: ent.id, list: ent.list}
	}
	return out
}

// install replays a recorded evaluation of fluent def into the window state,
// in its order: the warnings through warn (so Recognition.Warnings and the log
// read as if evaluated) and the interval lists through the store (so byFluent
// keeps the recorded order). The entries are one fluent's, so its cache
// entries take one block and its byFluent list grows once.
func (w *windowState) install(warnings []Warning, entries []listEntry) {
	for _, wn := range warnings {
		w.warn(wn)
	}
	if len(entries) == 0 {
		return
	}
	if pred, ok := fvpPred(entries[0].fvp, nil); ok {
		w.byFluent[pred] = slices.Grow(w.byFluent[pred], len(entries))
	}
	block := make([]cacheEntry, len(entries))
	for i, ent := range entries {
		w.storeIn(&block[i], ent.fvp, ent.id, ent.list)
	}
}

// fluentDelta is the carried state of one fluent after a window evaluation.
// It is immutable once captured, so an installing revision carries the same
// value forward.
type fluentDelta struct {
	// acts holds, per rule slot (initiatedAt rules first, then terminatedAt
	// rules, in definition order), the acts each anchor time produced. Nil
	// for SD fluents and delta-ineligible simple fluents.
	acts []map[int64][]act
	// entries holds what the fluent stored, in store order: diffed against
	// the next evaluation's output, or installed in its place.
	entries []listEntry
	// warnings holds what the evaluation raised (its tail of windowState.raised).
	warnings []Warning
	// open is the inertia input the evaluation saw (simple fluents).
	open []*lang.Term
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

	revision bool // prev describes this same window (set by attach)

	// Unit counters for the rtec.delta.* instruments: anchor events whose
	// cached acts stand (replayed, or their fluent installed), anchor events
	// re-derived, cached anchor times dropped at the expired left edge, and
	// fluent evaluations answered from carried lists.
	reused, dirty, expired, installed int64
}

// attach wires the context into a window state before evaluate().
func (d *deltaCtx) attach(w *windowState) {
	w.delta = d
	w.changed = map[string]intervals.List{}
	d.revision = d.prev != nil && d.prev.ws == w.ws && d.prev.we == w.we
	if d.capture {
		d.next = &deltaState{ws: w.ws, we: w.we, fluents: map[string]*fluentDelta{}}
	}
}

// flush records the window's delta counters and the reuse-ratio gauge.
func (d *deltaCtx) flush(tel *telemetry.Telemetry) {
	tel.Counter("rtec.delta.reused").Add(d.reused)
	tel.Counter("rtec.delta.dirty").Add(d.dirty)
	tel.Counter("rtec.delta.expired").Add(d.expired)
	tel.Counter("rtec.delta.installed").Add(d.installed)
	if total := d.reused + d.dirty; total > 0 {
		tel.Gauge("rtec.delta.reuse_ratio").Set(d.reused * 100 / total)
	}
}

// beginFluentDelta runs the delta layer's part of a fluent's evaluation that
// comes before its rules: with carried state covering the fluent it settles
// the dirty region, re-derives a replaying fluent's dirty anchor events and —
// on a revision whose inputs turn out unchanged — installs the carried lists
// and reports true: the fluent is done. Otherwise it prepares the capture
// target and the rules run.
func (w *windowState) beginFluentDelta(def *fluentDef) (installed bool) {
	w.curPrev, w.curNext, w.curUnits = nil, nil, nil
	d := w.delta
	if d == nil {
		return false
	}
	w.curWarned = len(w.raised)
	var prev *fluentDelta
	if d.prev != nil {
		prev = d.prev.fluents[def.ind]
	}
	if prev != nil {
		w.curPrev = prev
		// carried is the state the fluent's lists stand under when its
		// inputs came out as the carried evaluation had them; nil: evaluate.
		var carried *fluentDelta
		switch {
		case def.kind == SD:
			if d.revision && def.namedReads && !w.depsChanged(def) {
				carried = prev
			}
		case def.deltaEligible && len(prev.acts) == len(def.inits)+len(def.terms):
			w.curDirty = d.base
			for _, dep := range def.sortedDeps {
				if ch := w.changed[dep]; len(ch) > 0 {
					w.curDirty = intervals.Union(w.curDirty, ch)
				}
			}
			if c := w.deriveDirty(def, prev); c != nil && sameTerms(prev.open, w.openByFluent[def.pred]) {
				carried = c
			}
		}
		if carried != nil {
			w.install(prev.warnings, prev.entries)
			if d.capture {
				d.next.fluents[def.ind] = carried
			}
			d.installed++
			return true
		}
	}
	if d.capture {
		w.curNext = &fluentDelta{}
		if def.kind == Simple {
			w.curNext.open = w.openByFluent[def.pred]
			if def.deltaEligible {
				w.curNext.acts = make([]map[int64][]act, len(def.inits)+len(def.terms))
				for i := range w.curNext.acts {
					w.curNext.acts[i] = map[int64][]act{}
				}
			}
		}
		d.next.fluents[def.ind] = w.curNext
	}
	return false
}

// depsChanged reports whether any dependency of the fluent came out different
// from its carried lists.
func (w *windowState) depsChanged(def *fluentDef) bool {
	for _, dep := range def.sortedDeps {
		if len(w.changed[dep]) > 0 {
			return true
		}
	}
	return false
}

// ruleAt returns a simple fluent's rule by act-cache slot: initiatedAt rules
// first, then terminatedAt rules.
func (def *fluentDef) ruleAt(slot int) *rule {
	if slot < len(def.inits) {
		return def.inits[slot]
	}
	return def.terms[slot-len(def.inits)]
}

// sameTerms reports whether two term lists are element-wise equal.
func sameTerms(a, b []*lang.Term) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// sameAct reports whether two acts of a simple-fluent rule are the same
// effect.
func sameAct(x, y *act) bool {
	return x.t == y.t && x.fvp.Equal(y.fvp) &&
		(x.warn == y.warn || x.warn != nil && y.warn != nil && *x.warn == *y.warn)
}

// sameActs reports whether a time-point's re-derived acts equal its cached
// ones.
func sameActs(a, b []act) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameAct(&a[i], &b[i]) {
			return false
		}
	}
	return true
}

// deriveDirty re-derives, for every rule of a replaying simple fluent, the
// anchor events inside the dirty region — found by binary search per dirty
// interval in the rule's time-sorted events — inline on the calling
// goroutine: a revision dirties one time-point and a slide its tail, a
// handful of units per rule. The acts land in w.curUnits per rule slot, in
// event order (every act carries its anchor time), and the rule's anchor
// events are counted as dirty or reused.
//
// On a revision it returns the carried state the fluent's lists stand under,
// or nil when they may not: prev itself when every dirty time-point derived
// exactly its cached acts, and a copy of prev with the dirty time-points' acts
// replaced when they derived idle additions only (idleAdditions in eval.go). (A
// cached time-point can have lost no anchor event: the events of a window
// that is still evaluated are only ever added to.) On a slide the acts are
// not compared and it returns nil.
func (w *windowState) deriveDirty(def *fluentDef, prev *fluentDelta) (carried *fluentDelta) {
	d, dirty := w.delta, w.curDirty
	re := &w.seq
	re.apply = nil
	if d.revision {
		carried = prev
	}
	w.curUnits = make([][]act, len(prev.acts))
	for slot, cached := range prev.acts {
		r := def.ruleAt(slot)
		if !r.pattern.IsCallable() {
			continue // warned, and skipped, by evalSimpleRule
		}
		events := w.byInd[r.pattern.Pred()]
		re.buf = nil
		n, patched := 0, false
		for _, iv := range dirty {
			i := sort.Search(len(events), func(k int) bool { return events[k].Time >= iv.Start })
			for i < len(events) && events[i].Time < iv.End {
				t, from := events[i].Time, len(re.buf)
				for ; i < len(events) && events[i].Time == t; i++ {
					w.anchorUnit(def, r, events[i], re)
					n++
				}
				got := re.buf[from:len(re.buf):len(re.buf)]
				if carried == nil || sameActs(got, cached[t]) {
					continue
				}
				if !idleAdditions(got, cached[t], prev.entries, slot < len(def.inits)) {
					carried = nil
					continue
				}
				if carried == prev {
					carried = &fluentDelta{acts: append([]map[int64][]act(nil), prev.acts...), entries: prev.entries, warnings: prev.warnings, open: prev.open}
				}
				if !patched {
					carried.acts[slot], patched = maps.Clone(cached), true
				}
				carried.acts[slot][t] = got
			}
		}
		w.curUnits[slot] = re.buf
		d.dirty += int64(n)
		d.reused += int64(len(events) - n)
	}
	re.buf = nil
	return carried
}

// endFluentDelta captures what the fluent's evaluation stored and warned, and
// diffs the lists against the carried ones: the symmetric difference is the
// changed region that dirties dependent fluents higher up the hierarchy. It
// is kept unclipped — anchor events exist only inside the window, so the
// excess dirties nothing, and a difference beyond the window's end still is
// one: a late termination at q-1 changes nothing in [ws, q) but decides
// whether the FVP is open at the next window's start. The diff-driven propagation is what makes inter-fluent
// reuse airtight: any divergence in a dependency's output — whatever caused
// it — forces dependents to re-derive exactly where it happened.
func (w *windowState) endFluentDelta(def *fluentDef) {
	if w.curNext == nil && w.curPrev == nil {
		return // no delta context, or nothing to capture for and nothing to diff against
	}
	entries := entriesOf(w.byFluent[def.pred])
	if cur := w.curNext; cur != nil {
		cur.entries = entries
		// Only this evaluation raised warnings meanwhile.
		cur.warnings = append([]Warning(nil), w.raised[w.curWarned:]...)
	}
	if w.curPrev == nil {
		return
	}
	if ch := diffEntries(w.curPrev.entries, entries); len(ch) > 0 {
		w.changed[def.ind] = ch
	}
}

// diffEntries returns the region where two evaluations of a fluent differ.
func diffEntries(prev, cur []listEntry) intervals.List {
	var ch intervals.List
	aligned := len(prev) == len(cur)
	for i := 0; aligned && i < len(cur); i++ {
		aligned = prev[i].id == cur[i].id
	}
	if aligned { // the common case: the same FVPs, stored in the same order
		for i, ce := range cur {
			if !prev[i].list.Equal(ce.list) {
				ch = intervals.Union(ch, symDiff(prev[i].list, ce.list))
			}
		}
		return ch
	}
	prevByID := make(map[lang.InternID]intervals.List, len(prev))
	for _, pe := range prev {
		prevByID[pe.id] = pe.list
	}
	for _, ce := range cur {
		pl, ok := prevByID[ce.id]
		if !ok || !pl.Equal(ce.list) {
			ch = intervals.Union(ch, symDiff(pl, ce.list))
		}
		delete(prevByID, ce.id)
	}
	for _, pl := range prevByID {
		ch = intervals.Union(ch, pl)
	}
	return ch
}

// symDiff returns the region where exactly one of the two lists holds.
func symDiff(a, b intervals.List) intervals.List {
	return intervals.Union(intervals.RelativeComplement(a, b), intervals.RelativeComplement(b, a))
}

// replaySimpleRule is the incremental counterpart of the runUnits call in
// evalSimpleRule: anchor events at clean times replay the carried state's
// cached acts, anchor events at dirty times apply the acts deriveDirty
// re-derived. Events are time-sorted and a time-point is either entirely
// clean or entirely dirty, so walking the events in order reproduces the
// exact act sequence of the sequential evaluation.
func (w *windowState) replaySimpleRule(events []timedEvent, prevActs map[int64][]act, rec map[int64][]act, derived []act, apply func(act)) {
	d := w.delta
	dirty := w.curDirty
	for i := 0; i < len(events); {
		t := events[i].Time
		for i < len(events) && events[i].Time == t {
			i++
		}
		acts := prevActs[t]
		if dirty.Contains(t) {
			k := 0
			for k < len(derived) && derived[k].t == t {
				k++
			}
			acts, derived = derived[:k:k], derived[k:]
		}
		if rec != nil && len(acts) > 0 {
			rec[t] = acts
		}
		for _, a := range acts {
			apply(a)
		}
	}
	if d.revision {
		return // the carried state is the window's own: nothing expired
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
	anchorIdx := c.Anchor()
	if anchorIdx < 0 {
		return false
	}
	tv := c.Body[anchorIdx].Atom.Args[1]
	if tv.Kind != lang.Var {
		return false
	}
	for _, l := range c.Body {
		switch l.Atom.Pred().Functor {
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
