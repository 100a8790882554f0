package rtec

import (
	"fmt"

	"rtecgen/internal/intervals"
	"rtecgen/internal/kb"
	"rtecgen/internal/lang"
)

// This file holds the evaluation unit. A "unit" is the smallest piece of a
// fluent's evaluation: one (rule, anchor event) pair for a simple fluent,
// one (rule, candidate binding) pair for a statically determined one. Units
// of one rule run in order on the calling goroutine, each applying its
// effects (an FVP emission, an interval store, a runtime warning) as they
// occur, which fixes recognition output, warning order, checkpoint bytes and
// stream revisions. The delta layer alone runs units in buffered mode, to
// record the acts of the anchor events it re-derives (see deriveDirty).

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

// ruleEval is the per-unit evaluation context. In direct mode apply is
// non-nil and effects take place immediately. In buffered mode (deriveDirty)
// effects accumulate in buf. t is the anchor time of the unit
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

// warnf puts a runtime warning; dedup and telemetry happen when the act is
// applied.
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

// runUnits evaluates n units inline, in order, applying each effect as it
// occurs.
func (w *windowState) runUnits(n int, body func(int, *ruleEval), apply func(act)) {
	re := &w.seq
	re.apply = apply
	for i := 0; i < n; i++ {
		body(i, re)
	}
}
