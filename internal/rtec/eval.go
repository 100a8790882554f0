package rtec

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"rtecgen/internal/intervals"
	"rtecgen/internal/kb"
	"rtecgen/internal/lang"
	"rtecgen/internal/telemetry"
)

// cacheEntry holds the computed maximal intervals of one ground FVP within
// the current window. The intern ID and the fluent predicate are computed
// once, when the entry is created, so cache accesses and the inertia
// hand-off never re-render or re-parse the FVP term.
type cacheEntry struct {
	fvp    *lang.Term // ground '='(F, V)
	id     lang.InternID
	fluent lang.PredKey
	list   intervals.List
}

// windowState is the per-window evaluation context: the indexed events of
// the window (read-only; a batch run's belong to its Prepared) and the
// bottom-up cache of FVP interval lists. Event and fluent indexes are keyed
// by predicate (functor/arity pairs), and the FVP cache by interned term ID,
// so hot-path lookups build no strings.
type windowState struct {
	eng *Engine
	*windowIndex
	ws, we       int64 // window covers [ws, we)
	cache        map[lang.InternID]*cacheEntry
	byFluent     map[lang.PredKey][]*cacheEntry
	openByFluent map[lang.PredKey][]*lang.Term // simple FVPs holding at window start
	warnings     map[Warning]bool              // dedup of runtime warnings
	raised       []Warning                     // the window's warnings, once each, in the order raised
	tel          *telemetry.Telemetry          // may be nil: all uses degrade to no-ops
	span         *telemetry.Span               // the window span, parent of per-fluent spans
	seq          ruleEval                      // the unit context of inline (sequential) evaluation, reused across rules
	simple       simpleScratch                 // evalSimple's working memory, reused across simple fluents

	// shared places the window in its Prepared's fluent table; its run is
	// nil when the Prepared has no table, with DisableCache, or in a streaming
	// run (a window evaluated under a delta context is never in a shared run).
	shared sharedWindow

	// Delta-layer state (see delta.go); all nil/false when the window is
	// evaluated without a delta context.
	delta     *deltaCtx
	changed   map[string]intervals.List // per evaluated fluent: region (unclipped) where its output diverged from the carried state
	curPrev   *fluentDelta              // carried state of the fluent being evaluated (nil without one)
	curNext   *fluentDelta              // its capture target (nil when not capturing)
	curWarned int                       // length of raised when its evaluation began
	curDirty  intervals.List            // its dirty region (valid when curUnits != nil)
	curUnits  [][]act                   // non-nil: it replays cached acts; per rule slot, the acts re-derived at dirty anchor times
}

func newWindowState(e *Engine, events *windowIndex, ws, we int64, prevOpen map[string]*lang.Term, tel *telemetry.Telemetry, span *telemetry.Span) *windowState {
	w := &windowState{
		eng:         e,
		windowIndex: events,
		ws:          ws,
		we:          we,
		cache:       map[lang.InternID]*cacheEntry{},
		byFluent:    map[lang.PredKey][]*cacheEntry{},
		warnings:    map[Warning]bool{},
		tel:         tel,
		span:        span,
	}
	w.seq.w = w
	// Group the carried-over FVPs by fluent once per window (instead of
	// filtering the whole set per fluent), in canonical key order so the
	// inertia seeding order is deterministic.
	if len(prevOpen) > 0 {
		keys := make([]string, 0, len(prevOpen))
		for k := range prevOpen {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		w.openByFluent = map[lang.PredKey][]*lang.Term{}
		for _, k := range keys {
			fvp := prevOpen[k]
			if pred, ok := fvpPred(fvp, nil); ok {
				w.openByFluent[pred] = append(w.openByFluent[pred], fvp)
			}
		}
	}
	return w
}

// warnf records a runtime warning once per window: collected on the
// Recognition (for programmatic consumers) and surfaced on the telemetry
// logger with fluent and window attributes (for operators).
func (w *windowState) warnf(fluent, format string, args ...any) {
	w.warn(Warning{Fluent: fluent, Msg: fmt.Sprintf(format, args...)})
}

func (w *windowState) warn(wn Warning) {
	if w.warnings[wn] {
		return
	}
	w.warnings[wn] = true
	w.tel.Logger().Warn(wn.Msg,
		"component", "rtec", "stage", "recognition", "fluent", wn.Fluent,
		"window_start", w.ws, "query_time", w.we)
	w.raised = append(w.raised, wn)
}

// store unions list into the cache entry for the ground FVP, whose intern ID
// is id, or noInternID when the caller does not hold it.
func (w *windowState) store(fvp *lang.Term, id lang.InternID, list intervals.List) {
	w.storeIn(nil, fvp, id, list)
}

// storeIn is store with ent, when not nil, the unused memory a new cache
// entry takes.
func (w *windowState) storeIn(ent *cacheEntry, fvp *lang.Term, id lang.InternID, list intervals.List) {
	if id == noInternID {
		id = w.eng.interner.ID(fvp, nil)
	}
	if old, ok := w.cache[id]; ok {
		old.list = intervals.Union(old.list, list)
		return
	}
	if ent == nil {
		ent = new(cacheEntry)
	}
	*ent = cacheEntry{fvp: fvp, id: id, list: list}
	if pred, ok := fvpPred(fvp, nil); ok {
		ent.fluent = pred
		w.byFluent[pred] = append(w.byFluent[pred], ent)
	}
	w.cache[id] = ent
}

// listOf returns the cached intervals of an FVP that is ground under b (nil
// when unknown — an undefined or never-holding FVP has no intervals). The
// lookup goes through the intern table, so it builds no term, renders no
// string and takes only a read lock, making it safe and cheap from runs on
// concurrent goroutines sharing the engine.
func (w *windowState) listOf(fvp *lang.Term, b *lang.Bindings) intervals.List {
	id, ok := w.eng.interner.Lookup(fvp, b)
	if !ok {
		return nil
	}
	if ent, ok := w.cache[id]; ok {
		return ent.list
	}
	return nil
}

// evaluate computes every fluent of the hierarchy bottom-up, caching each
// fluent's intervals for the window so higher-level definitions reuse them.
// Each stratum is wrapped in a child span of the window span, and its
// evaluation time feeds the per-stratum histogram. Strata run in dependency
// order, and so do the rule groundings within a stratum (see unit.go).
func (w *windowState) evaluate() {
	if w.eng.opts.DisableCache {
		w.evaluateUncached()
		return
	}
	var perLevel map[int]*telemetry.Histogram // nil: metrics off, strata untimed
	if w.tel != nil && w.tel.Registry != nil {
		perLevel = map[int]*telemetry.Histogram{}
	}
	for _, ind := range w.eng.order {
		level := w.eng.fluents[ind].level
		sp := w.span.Span("rtec.fluent",
			telemetry.String("fluent", ind),
			telemetry.Int("stratum", int64(level)))
		var t0 time.Time
		if perLevel != nil {
			t0 = time.Now() //rtecvet:allow telemetry timer: real per-stratum evaluation duration
		}
		w.evalFluent(ind)
		if perLevel != nil {
			lh, ok := perLevel[level]
			if !ok {
				lh = w.tel.Histogram(stratumHistName(level))
				perLevel[level] = lh
			}
			lh.ObserveDuration(time.Since(t0))
		}
		sp.End()
	}
}

// evalFluent computes one fluent for the window. On a shared window a
// fingerprinted fluent is looked up in the Prepared's table first. A hit
// installs what the recorded evaluation did to the window state (install in
// delta.go, shared with a revision's carried lists). A miss evaluates and
// publishes; when two runs race on a key the first
// publication stays, and both computed the same thing.
func (w *windowState) evalFluent(ind string) {
	def := w.eng.fluents[ind]
	sh := w.shared.run
	if sh == nil {
		w.derive(def)
		return
	}
	key := sharedKey{fp: sh.fps[ind], window: w.shared.index}
	if key.fp == 0 {
		w.derive(def)
		return
	}
	if res := sh.load(key, def); res != nil {
		w.install(res.warnings, res.entries)
		sh.hits.Inc()
		return
	}
	sh.misses.Inc()
	warned := len(w.raised)
	w.derive(def)
	// Only this evaluation stores FVPs of this fluent and raises warnings
	// meanwhile, so the two tails are exactly what it produced. The
	// table is read by other engines, and intern IDs are per engine.
	entries := entriesOf(w.byFluent[def.pred])
	for i := range entries {
		entries[i].id = noInternID
	}
	res := &sharedResult{entries: entries}
	if len(w.raised) > warned {
		res.exact = def.exactText()
		res.warnings = append([]Warning(nil), w.raised[warned:]...)
	}
	sh.table.results.LoadOrStore(key, res)
}

// derive evaluates the fluent's rules over the window.
func (w *windowState) derive(def *fluentDef) {
	if w.beginFluentDelta(def) {
		return // installed from the window's own carried state
	}
	if def.kind == Simple {
		w.evalSimple(def)
	} else {
		w.evalSD(def)
	}
	w.endFluentDelta(def)
}

// evaluateUncached is the caching ablation: for every fluent, its full
// dependency closure is recomputed from scratch instead of being shared
// bottom-up. Results are identical to the cached evaluation.
func (w *windowState) evaluateUncached() {
	finalCache := map[lang.InternID]*cacheEntry{}
	finalByFluent := map[lang.PredKey][]*cacheEntry{}
	for _, ind := range w.eng.order {
		def := w.eng.fluents[ind]
		w.cache = map[lang.InternID]*cacheEntry{}
		w.byFluent = map[lang.PredKey][]*cacheEntry{}
		for _, dep := range w.eng.depsClosure(ind) {
			w.evalFluent(dep)
		}
		w.evalFluent(ind)
		for id, ent := range w.cache {
			if ent.fluent != def.pred {
				continue
			}
			finalCache[id] = ent
			finalByFluent[def.pred] = append(finalByFluent[def.pred], ent)
		}
	}
	w.cache, w.byFluent = finalCache, finalByFluent
}

// --- simple fluents --------------------------------------------------------

// fvpPoints accumulates initiation and termination points per ground FVP.
type fvpPoints struct {
	fvp        *lang.Term
	id         lang.InternID
	fluentPart lang.InternID // interned fluent term F (without =V)
	inits      []int64
	terms      []int64
}

// simpleScratch is evalSimple's working memory, kept by the window and
// emptied after each simple fluent: the next one reuses the map, the point
// records and their time-point buffers instead of growing its own.
type simpleScratch struct {
	points map[lang.InternID]*fvpPoints
	free   []*fvpPoints // emptied records, buffers kept
	keys   []lang.InternID
	terms  []int64
}

func (w *windowState) evalSimple(def *fluentDef) {
	in := w.eng.interner
	sc := &w.simple
	if sc.points == nil {
		sc.points = map[lang.InternID]*fvpPoints{}
	}
	points := sc.points
	get := func(fvp *lang.Term, id lang.InternID) *fvpPoints {
		if id == noInternID {
			id = in.ID(fvp, nil)
		}
		p, ok := points[id]
		if !ok {
			if n := len(sc.free); n > 0 {
				p, sc.free = sc.free[n-1], sc.free[:n-1]
			} else {
				p = new(fvpPoints)
			}
			*p = fvpPoints{fvp: fvp, id: id, fluentPart: in.ID(fvp.Args[0], nil), inits: p.inits[:0], terms: p.terms[:0]}
			points[id] = p
		}
		return p
	}

	// Inertia: FVPs open at the window start behave as if initiated just
	// before it, so their interval resumes at ws.
	for _, fvp := range w.openByFluent[def.pred] {
		p := get(fvp, noInternID)
		p.inits = append(p.inits, w.ws-1)
	}

	// Initiations must be ground: an unbound variable in the head of an
	// initiatedAt rule is unsafe. Terminations may be non-ground — e.g.
	// rule (3) of the paper terminates withinArea(Vl, AreaType)=true for
	// every AreaType on a communication gap — and act as wildcards over all
	// matching FVPs of the fluent.
	type wildcard struct {
		pattern *lang.Term
		t       int64
	}
	var wildcards []wildcard
	for ri, rule := range def.inits {
		w.evalSimpleRule(def, ri, rule, func(a act) {
			if !a.fvp.IsGround() {
				w.warnf(def.ind, "initiatedAt rule derives non-ground FVP %s; occurrence dropped", a.fvp)
				return
			}
			p := get(a.fvp, a.id)
			p.inits = append(p.inits, a.t)
		})
	}
	for ri, rule := range def.terms {
		w.evalSimpleRule(def, len(def.inits)+ri, rule, func(a act) {
			if !a.fvp.IsGround() {
				wildcards = append(wildcards, wildcard{pattern: a.fvp, t: a.t})
				return
			}
			p := get(a.fvp, a.id)
			p.terms = append(p.terms, a.t)
		})
	}
	b := &w.seq.b
	for _, wc := range wildcards {
		// An emitted pattern carries no slots (see derived), whichever rule
		// or carried delta state it comes from: number it here.
		var vt lang.VarTable
		pattern := vt.Number(wc.pattern)
		b.Reset(vt.Len())
		for _, p := range points {
			if b.Unify(pattern, p.fvp) {
				p.terms = append(p.terms, wc.t)
				b.Undo(0)
			}
		}
	}

	// Values of a simple fluent are mutually exclusive: initiating F=V'
	// breaks any current interval of F=V (V != V'). Keys are ordered by the
	// FVPs' canonical renderings (cached in the intern table), matching the
	// historical store order exactly.
	keys := sc.keys[:0]
	for k := range points {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b lang.InternID) int { return strings.Compare(in.StringOf(a), in.StringOf(b)) })
	for _, k := range keys {
		p := points[k]
		terms := append(sc.terms[:0], p.terms...)
		for _, k2 := range keys {
			if q := points[k2]; k2 != k && q.fluentPart == p.fluentPart {
				terms = append(terms, q.inits...)
			}
		}
		sc.terms = terms
		if list := intervals.FromPoints(p.inits, terms); len(list) > 0 {
			w.store(p.fvp, p.id, list)
		}
	}
	for _, k := range keys {
		sc.free = append(sc.free, points[k])
	}
	clear(points)
	sc.keys = keys
}

// idleAdditions reports whether a time-point's re-derived acts are its cached
// ones plus occurrences that change no list evalSimple computes for the
// fluent: an initiation of a ground FVP that held at the next time-point
// anyway, or a termination of one that did not. It is the delta layer's
// question (deriveDirty asks it on a revision) but evalSimple's answer, so it
// lives here, and it stands on exactly two things:
//   - intervals.FromPoints: where the list holds at t+1 one more initiation at
//     t is absorbed, and where it does not one more termination at t ends
//     nothing (TestPropFromPointsIdleOccurrences in internal/intervals);
//   - the cross-value extraTerms above: an initiation of F=V at t is a
//     termination at t of every other value of F. Where F=V holds at t+1 no
//     other value does (it was itself initiated at t, terminating them, or it
//     held at t and nothing initiated another value at t, which would have
//     terminated it), so those terminations end nothing either.
//
// A non-ground occurrence (a wildcard termination, a dropped initiation) is
// never idle. entries are the fluent's carried lists, initiating tells an
// initiatedAt rule from a terminatedAt one.
func idleAdditions(got, cached []act, entries []listEntry, initiating bool) bool {
	k := 0
	for i := range got {
		a := &got[i]
		if k < len(cached) && sameAct(a, &cached[k]) {
			k++
			continue
		}
		if a.fvp == nil || !a.fvp.IsGround() {
			return false
		}
		var list intervals.List
		for _, ent := range entries {
			if ent.fvp.Equal(a.fvp) {
				list = ent.list
				break
			}
		}
		if list.Contains(a.t+1) != initiating {
			return false
		}
	}
	return k == len(cached)
}

// evalSimpleRule evaluates one initiatedAt/terminatedAt rule event-driven:
// it iterates the window events matching the rule's anchor (its first
// positive happensAt condition, found when the rule was compiled) and solves
// the remaining conditions. Each anchor event is one evaluation unit (see
// unit.go), run in event order. slot identifies the rule within
// the fluent (inits first, then terms) for the delta layer's per-rule act
// cache: a replaying fluent's units at clean anchor times replay the carried
// state's cached acts, and its dirty ones were re-derived before the rules
// ran (see deriveDirty and replaySimpleRule in delta.go).
func (w *windowState) evalSimpleRule(def *fluentDef, slot int, r *rule, emit func(act)) {
	if !r.pattern.IsCallable() {
		w.warnf(def.ind, "happensAt pattern %s is not callable; rule skipped", r.pattern)
		return
	}
	events := w.byInd[r.pattern.Pred()]
	apply := func(a act) {
		if a.fvp == nil {
			w.warn(*a.warn)
			return
		}
		emit(a)
	}

	var rec map[int64][]act // capture target: acts of this rule by anchor time
	if w.curNext != nil && w.curNext.acts != nil {
		rec = w.curNext.acts[slot]
	}
	if w.curUnits != nil {
		w.replaySimpleRule(events, w.curPrev.acts[slot], rec, w.curUnits[slot], apply)
		return
	}
	if w.delta != nil {
		w.delta.dirty += int64(len(events))
	}
	if rec != nil {
		inner := apply
		apply = func(a act) {
			rec[a.t] = append(rec[a.t], a)
			inner(a)
		}
	}
	w.runUnits(len(events),
		func(i int, re *ruleEval) { w.anchorUnit(def, r, events[i], re) },
		apply)
}

// anchorUnit is one evaluation unit of a simple-fluent rule: the rule's body
// solved with its anchor condition unified with the event.
func (w *windowState) anchorUnit(def *fluentDef, r *rule, ev timedEvent, re *ruleEval) {
	re.begin(def, r, ev.Time)
	if r.bindAnchor(&re.b, ev.Atom, ev.at) {
		re.solve(r.body)
	}
}

// solve evaluates the remaining body conditions of the unit's rule with
// backtracking — binding into the unit's store, undoing to the trail mark on
// the way back — and calls derived for every solution. It runs inside an
// evaluation unit: it only reads the shared window state, and routes warnings
// through the unit context. Conditions are walked through the bindings, never
// resolved into fresh terms; a unit that derives nothing allocates nothing.
func (re *ruleEval) solve(conds []cond) {
	if len(conds) == 0 {
		re.derived()
		return
	}
	c, rest := &conds[0], conds[1:]
	w, b, ind, atom := re.w, &re.b, re.def.ind, conds[0].atom
	switch c.kind {
	case condBuiltin:
		var result *lang.Term
		if c.result >= 0 {
			result = &re.results[c.result]
		}
		mark := b.Mark()
		ok, fault := kb.Solve(atom, b, result)
		if fault.Term != nil {
			re.warnArith(atom, fault)
			return
		}
		if ok != c.neg {
			re.solve(rest)
		}
		b.Undo(mark)

	case condHappensAt, condHoldsAt, condBackground:
		if c.kind == condHoldsAt && b.Walk(atom.Args[1]).Kind == lang.Var {
			// An unbound time-point makes the condition unsafe: negation
			// would succeed vacuously. Fail the rule and say why.
			re.warnf(ind, "holdsAt condition %s has an unbound time-point; rule fails", atom)
			return
		}
		found := false
		if c.neg {
			re.each(c, func() { found = true })
			if !found {
				re.solve(rest)
			}
			return
		}
		re.each(c, func() {
			found = true
			re.solve(rest)
		})
		if !found && c.kind == condBackground && c.facts.Unknown() {
			re.warnf(ind, "unknown predicate %s; condition fails", atom.Indicator())
		}

	case condHoldsFor:
		switch {
		case re.rule.ivar == nil:
			re.warnf(ind, "holdsFor condition %s is not allowed in a simple-fluent rule; rule fails", atom)
			return
		case c.neg:
			re.warnf(ind, "negated holdsFor is not supported; use relative_complement_all")
			return
		case len(atom.Args) != 2 || atom.Args[1].Kind != lang.Var:
			re.warnf(ind, "holdsFor condition %s must bind a fresh interval variable", atom)
			return
		}
		fvp, ivar := atom.Args[0], atom.Args[1]
		if b.IsGround(fvp) {
			re.withInterval(ivar, w.listOf(fvp, b), rest)
			return
		}
		pred, _ := fvpPred(fvp, b)
		for _, ent := range w.byFluent[pred] {
			if mark := b.Mark(); b.Unify(fvp, ent.fvp) {
				re.withInterval(ivar, ent.list, rest)
				b.Undo(mark)
			}
		}

	case condUnion, condIntersect:
		if len(atom.Args) != 2 || atom.Args[0].Kind != lang.List || atom.Args[1].Kind != lang.Var {
			re.warnf(ind, "malformed interval construct %s", atom)
			return
		}
		lists, ok := re.intervalLists(atom.Args[0].Args)
		if !ok {
			return
		}
		var out intervals.List
		if c.kind == condUnion {
			out = intervals.Union(lists...)
		} else {
			out = intervals.Intersect(lists...)
		}
		re.withInterval(atom.Args[1], out, rest)

	case condRelComp:
		if len(atom.Args) != 3 || atom.Args[0].Kind != lang.Var || atom.Args[1].Kind != lang.List || atom.Args[2].Kind != lang.Var {
			re.warnf(ind, "malformed interval construct %s", atom)
			return
		}
		base := re.ienv[atom.Args[0].Int-1]
		if !base.bound {
			re.warnf(ind, "interval variable %s used before being bound", atom.Args[0])
			return
		}
		subtract, ok := re.intervalLists(atom.Args[1].Args)
		if !ok {
			return
		}
		re.withInterval(atom.Args[2], intervals.RelativeComplement(base.list, subtract...), rest)
	}
}

// each enumerates the solutions of one positive happensAt, holdsAt or
// background condition: for each, the unit's store is extended in place,
// yield is called, and the extension is undone.
func (re *ruleEval) each(c *cond, yield func()) {
	switch c.kind {
	case condHappensAt:
		re.eachEventMatch(c.atom, yield)
	case condHoldsAt:
		re.eachHoldsAt(c.atom, yield)
	default:
		c.facts.Match(c.atom, &re.b, yield)
	}
}

// derived turns a solution of the rule body into the unit's effect: the
// occurrence of the head FVP at the anchor time for a simple-fluent rule, the
// head interval variable's list for a holdsFor rule. The head is the one term
// a unit builds, and only the first time: an FVP the engine has interned
// before is reused, and its intern ID travels with the act, so the head is
// hashed once. Either way a non-ground head leaves the unit without the
// rule's slots, so no consumer can read it through another rule's store.
func (re *ruleEval) derived() {
	r, in := re.rule, re.w.eng.interner
	var fvp *lang.Term
	id, ok := in.Lookup(r.head, &re.b)
	if ok {
		fvp = in.TermOf(id)
	} else {
		fvp, id = lang.Unnumbered(re.b.Resolve(r.head)), noInternID
	}
	if r.ivar == nil {
		re.put(act{fvp: fvp, id: id, t: re.t})
		return
	}
	if !fvp.IsGround() {
		re.warnf(re.def.ind, "holdsFor rule derives non-ground FVP %s; dropped", fvp)
		return
	}
	out := re.ienv[r.ivar.Int-1]
	if !out.bound {
		re.warnf(re.def.ind, "head interval variable %s is not produced by the body; dropped", r.ivar)
		return
	}
	if len(out.list) > 0 {
		re.put(act{fvp: fvp, id: id, list: out.list})
	}
}

// eachEventMatch enumerates the window events unifying with a happensAt
// condition. When the time argument is bound, only that time-point's events
// are scanned.
func (re *ruleEval) eachEventMatch(atom *lang.Term, yield func()) {
	w, b := re.w, &re.b
	pattern, timeArg := b.Walk(atom.Args[0]), b.Walk(atom.Args[1])
	if !pattern.IsCallable() {
		return
	}
	pred := pattern.Pred()
	if t, ok := timeArg.Number(); ok {
		for _, ev := range w.byIndTime[pred][int64(t)] {
			if mark := b.Mark(); b.Unify(pattern, ev) {
				yield()
				b.Undo(mark)
			}
		}
		return
	}
	for _, ev := range w.byInd[pred] {
		mark := b.Mark()
		if b.Unify(pattern, ev.Atom) && b.Unify(timeArg, ev.at) {
			yield()
		}
		b.Undo(mark)
	}
}

// eachHoldsAt enumerates the solutions of a holdsAt(F=V, T) condition
// against the window cache. T must be bound to a number (it always is in
// simple-fluent rules, where every predicate shares the rule's time-point);
// anything else fails.
func (re *ruleEval) eachHoldsAt(atom *lang.Term, yield func()) {
	w, b := re.w, &re.b
	fvp := atom.Args[0]
	tNum, ok := b.Walk(atom.Args[1]).Number()
	if !ok {
		return
	}
	t := int64(tNum)
	if b.IsGround(fvp) {
		if w.listOf(fvp, b).Contains(t) {
			yield()
		}
		return
	}
	pred, ok := fvpPred(fvp, b)
	if !ok {
		return
	}
	for _, ent := range w.byFluent[pred] {
		if !ent.list.Contains(t) {
			continue
		}
		if mark := b.Mark(); b.Unify(fvp, ent.fvp) {
			yield()
			b.Undo(mark)
		}
	}
}

// --- statically determined fluents -----------------------------------------

// intervalBinding is one slot of a unit's interval environment: the list an
// interval variable (I, I1, ...) is bound to while a holdsFor rule body is
// evaluated. Interval variables live in their own namespace, distinct from
// the term bindings: the environment is a second array over the same slots.
// A variable bound to an empty list is still bound.
type intervalBinding struct {
	list  intervals.List
	bound bool
}

// withInterval solves rest with the interval variable bound to list, then
// puts back whatever the variable held before, so sibling branches of the
// search never see each other's bindings.
func (re *ruleEval) withInterval(ivar *lang.Term, list intervals.List, rest []cond) {
	slot := &re.ienv[ivar.Int-1]
	saved := *slot
	*slot = intervalBinding{list: list, bound: true}
	re.solve(rest)
	*slot = saved
}

func (w *windowState) evalSD(def *fluentDef) {
	for _, r := range def.holdsFor {
		w.evalSDRule(def, r)
	}
}

// evalSDRule evaluates one holdsFor rule. Each candidate binding is one
// evaluation unit, run in candidate order; candidates only read strictly
// lower strata.
func (w *windowState) evalSDRule(def *fluentDef, r *rule) {
	cands := w.sdCandidates(def, r)
	w.runUnits(len(cands),
		func(i int, re *ruleEval) {
			re.begin(def, r, 0)
			re.b.Load(cands[i])
			re.solve(r.body)
		},
		func(a act) {
			if a.fvp == nil {
				w.warn(*a.warn)
				return
			}
			w.store(a.fvp, a.id, a.list)
		})
}

// sdCandidates enumerates the candidate bindings over which a holdsFor rule
// is evaluated, each a snapshot of the rule's binding store. With grounding
// declarations, the declared entity domains are used. Otherwise candidates are derived from the cache: every grounding of
// any positive holdsFor body condition contributes one, so unions over fluent
// values see every relevant entity even when a particular conjunct has no
// intervals (its list is then empty).
func (w *windowState) sdCandidates(def *fluentDef, r *rule) [][]*lang.Term {
	var out [][]*lang.Term
	b := &w.seq.b
	b.Reset(r.nvars)
	add := func() {
		out = append(out, b.Snapshot())
	}
	if len(r.groundings) > 0 {
		for _, g := range r.groundings {
			if !b.Unify(g.fluent, r.head.Args[0]) {
				continue
			}
			n := len(out)
			if err := w.eng.kb.Query(g.body, b, add); err != nil {
				w.warnf(def.ind, "grounding declaration: %v", err)
				out = out[:n]
			}
			b.Undo(0)
		}
		return out
	}

	// Dedup on the (head, condition) FVP pair, by interned ID: equal IDs
	// are structurally equal terms, which is what the rendered-string key
	// used to test.
	in := w.eng.interner
	seen := map[[2]lang.InternID]bool{}
	for _, c := range r.body {
		if c.neg || c.kind != condHoldsFor || len(c.atom.Args) != 2 {
			continue
		}
		condFVP := c.atom.Args[0]
		pred, ok := fvpPred(condFVP, nil)
		if !ok {
			continue
		}
		for _, ent := range w.byFluent[pred] {
			if !b.Unify(condFVP, ent.fvp) {
				continue
			}
			key := [2]lang.InternID{in.ID(r.head, b), in.ID(condFVP, b)}
			if !seen[key] {
				seen[key] = true
				add()
			}
			b.Undo(0)
		}
	}
	if len(out) == 0 {
		// A rule whose conditions are all interval constructs or atemporal
		// (unusual) still gets one empty candidate.
		add()
	}
	return out
}

// intervalLists maps interval variables to their bound lists. The result is
// the unit's scratch slice, valid until the next call.
func (re *ruleEval) intervalLists(vars []*lang.Term) ([]intervals.List, bool) {
	out := re.lists[:0]
	for _, v := range vars {
		if v.Kind != lang.Var {
			re.warnf(re.def.ind, "interval construct argument %s is not a variable", v)
			return nil, false
		}
		l := re.ienv[v.Int-1]
		if !l.bound {
			re.warnf(re.def.ind, "interval variable %s used before being bound", v)
			return nil, false
		}
		out = append(out, l.list)
	}
	re.lists = out
	return out, true
}
