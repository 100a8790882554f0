package rtec

import (
	"fmt"
	"sync"

	"rtecgen/internal/intervals"
	"rtecgen/internal/kb"
	"rtecgen/internal/lang"
	"rtecgen/internal/stream"
)

// This file implements entity-sharded parallel evaluation of one fluent's
// rules. A "unit" is the smallest independently evaluable piece of work: one
// (rule, anchor event) pair for a simple fluent, one (rule, candidate
// binding) pair for a statically determined one. Units of the same
// fluent never observe each other's results — simple-fluent rules store
// nothing until every rule has run, and SD bodies only read strictly lower
// strata — so they can run on parallel workers.
//
// Determinism: every externally visible effect of a unit (an FVP emission,
// an interval store, a runtime warning) is buffered as an act in the unit's
// own slot, in occurrence order. After the pool drains, slots are applied
// sequentially in unit order, which reproduces the exact effect order of the
// sequential evaluation — so recognition output, warning order, checkpoint
// bytes and stream revisions are byte-identical to Workers=1 regardless of
// how units were sharded onto workers. The entity shard key only decides
// which worker runs a unit (locality and balance), never the merge order.

// minParallelUnits is the batch size below which spawning workers costs more
// than it saves; smaller batches run inline on the calling goroutine.
const minParallelUnits = 8

// act is one buffered effect of an evaluation unit: either a runtime
// warning (fvp == nil) or an emission/store of fvp with the payload the
// applying rule expects (occurrence time t for simple rules, interval list
// for holdsFor rules). id is fvp's intern ID, or noInternID. The warning is
// held by pointer: acts are carried per anchor event by the delta layer, and
// nearly none of them warns.
type act struct {
	warn *Warning
	fvp  *lang.Term
	id   lang.InternID
	t    int64
	list intervals.List
}

// ruleEval is the per-unit evaluation context. In direct (sequential) mode
// apply is non-nil and effects take place immediately, reproducing the
// classic single-goroutine code path. In buffered (parallel) mode effects
// accumulate in buf for the ordered merge. t is the anchor time of the unit
// being evaluated (simple-fluent rules only): warning acts carry it so the
// delta layer can cache them per anchor time alongside emissions.
//
// The context also owns the unit's working memory — the binding store the
// rule's variables are bound in, the interval environment of a holdsFor body
// and a scratch slice — which begin re-sizes for each unit's rule without
// releasing, so the units of a batch share one allocation of each.
type ruleEval struct {
	w     *windowState
	apply func(act)
	buf   []act
	t     int64

	def   *fluentDef
	rule  *rule
	b     lang.Bindings
	ienv  []intervalBinding // holdsFor rules: interval variables by slot
	lists []intervals.List  // scratch of intervalLists

	// doomed remembers, per builtin condition (its atom in the compiled
	// rule), the operand that last failed to evaluate there and the warning
	// rendered for it: see warnArith.
	doomed map[*lang.Term]doomedCond
}

type doomedCond struct {
	operand *lang.Term
	warn    *Warning
}

// begin points the context at the unit about to run: rule r of fluent def,
// anchored at time t (0 for a holdsFor rule), with an empty binding store.
func (re *ruleEval) begin(def *fluentDef, r *rule, t int64) {
	re.def, re.rule, re.t = def, r, t
	re.b.Reset(r.nvars)
	if r.ivar != nil && len(re.ienv) < r.nvars {
		re.ienv = make([]intervalBinding, r.nvars)
	}
}

func (re *ruleEval) put(a act) {
	if re.apply != nil {
		re.apply(a)
		return
	}
	re.buf = append(re.buf, a)
}

// warnf buffers a runtime warning; dedup and telemetry happen when the act
// is applied on the merge path, exactly as the sequential code would.
func (re *ruleEval) warnf(fluent, format string, args ...any) {
	re.put(act{warn: &Warning{Fluent: fluent, Msg: fmt.Sprintf(format, args...)}, t: re.t})
}

// warnArith buffers the warning for builtin condition atom, whose operand did
// not evaluate. A rule missing the condition that would have bound the
// operand fails this way at every anchor event, and windowState.warn keeps
// the first warning of the window: so the text is rendered once per
// (condition, offending term) and the remembered Warning put after that. The
// offending term is compared by identity — an unbound rule variable, or a
// term nothing was bound inside of, is the same *lang.Term every time and
// prints the same; a term the bindings had to build is new each time and
// takes the rendering path.
func (re *ruleEval) warnArith(atom *lang.Term, err error) {
	bad, ok := err.(*kb.ArithError)
	if !ok {
		re.warnf(re.def.ind, "condition %s: %v", atom, err)
		return
	}
	m, seen := re.doomed[atom]
	if !seen || m.operand != bad.Term {
		m = doomedCond{operand: bad.Term, warn: &Warning{Fluent: re.def.ind, Msg: fmt.Sprintf("condition %s: %v", atom, err)}}
		if re.doomed == nil {
			re.doomed = map[*lang.Term]doomedCond{}
		}
		re.doomed[atom] = m
	}
	re.put(act{warn: m.warn, t: re.t})
}

// eventEntity is the shard key of an event unit: the event's first argument
// is its entity (e.g. the vessel of a change_in_speed_start), so events of
// the same entity land on the same worker.
func eventEntity(ev stream.Event) uint64 {
	if len(ev.Atom.Args) > 0 {
		return lang.Hash(ev.Atom.Args[0], nil)
	}
	return lang.Hash(ev.Atom, nil)
}

// runUnits evaluates n units. With a single worker (or a tiny batch) the
// units run inline in order with immediate effect application — the classic
// sequential path. Otherwise units are partitioned by their entity shard key
// onto the engine's worker pool, each unit buffering its effects into its
// own slot, and the slots are applied in unit order after the pool drains.
// shard is only consulted on the parallel path.
func (w *windowState) runUnits(n int, shard func(int) uint64, body func(int, *ruleEval), apply func(act)) {
	workers := w.eng.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < minParallelUnits {
		re := &w.seq
		re.apply = apply
		for i := 0; i < n; i++ {
			body(i, re)
		}
		return
	}

	for _, acts := range w.runUnitsParallel(n, workers, shard, body) {
		for _, a := range acts {
			apply(a)
		}
	}
}

// runUnitsParallel partitions the units by entity shard key onto the worker
// pool and returns the per-unit act buffers in unit order.
func (w *windowState) runUnitsParallel(n, workers int, shard func(int) uint64, body func(int, *ruleEval)) [][]act {
	shards := make([][]int32, workers)
	for i := 0; i < n; i++ {
		s := int(shard(i) % uint64(workers))
		shards[s] = append(shards[s], int32(i))
	}
	slots := make([][]act, n)
	var wg sync.WaitGroup
	for _, sh := range shards {
		if len(sh) == 0 {
			continue
		}
		wg.Add(1)
		go func(idx []int32) {
			defer wg.Done()
			re := ruleEval{w: w}
			for _, i := range idx {
				re.buf = nil
				body(int(i), &re)
				slots[i] = re.buf
			}
		}(sh)
	}
	wg.Wait()
	return slots
}
