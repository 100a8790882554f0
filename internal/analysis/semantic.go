package analysis

import (
	"fmt"
	"strings"

	"rtecgen/internal/kb"
	"rtecgen/internal/lang"
)

// This file holds the semantic passes R011-R016: checks that look past the
// shape of individual clauses into the meaning of the description — empty
// intervals, unreachable recognition, argument sorts, redundant and vacuous
// conditions, and fluents that never end.

// ---------------------------------------------------------------- R011

// contraKey canonicalizes a temporal rule modulo its head functor, so an
// initiatedAt and a terminatedAt rule over the same FVP with the same
// conditions hash identically.
func contraKey(c *lang.Clause) string {
	n := &lang.Clause{Head: lang.NewCompound("\x00tmp", c.Head.Args...), Body: c.Body}
	return canonicalClause(n)
}

// runContradictoryInitiation reports terminatedAt rules whose conditions are
// exactly the conditions of an initiatedAt rule for the same fluent-value
// pair: every interval the FVP could have is closed the instant it opens.
func runContradictoryInitiation(ctx *context) []Diagnostic {
	initBy := map[string]*lang.Clause{}
	for _, c := range ctx.ed.Clauses {
		if fvp, _ := c.HeadFVP(); fvp == nil || c.IsFact() || c.Kind() != lang.KindInitiatedAt {
			continue
		}
		key := contraKey(c)
		if _, ok := initBy[key]; !ok {
			initBy[key] = c
		}
	}
	var out []Diagnostic
	for _, c := range ctx.ed.Clauses {
		fvp, fl := c.HeadFVP()
		if fvp == nil || c.IsFact() || c.Kind() != lang.KindTerminatedAt {
			continue
		}
		init, ok := initBy[contraKey(c)]
		if !ok {
			continue
		}
		d := Diagnostic{Severity: Error, Pos: c.Pos, Symbol: fl.Functor,
			Message: fmt.Sprintf("the conditions that initiate '%s' at %s also terminate it here: every interval is empty", fvp, init.Pos)}
		if fix, ok := ctx.deleteClauseFix(c, "delete the contradictory terminatedAt rule"); ok {
			d.SuggestedFixes = []SuggestedFix{fix}
		}
		out = append(out, d)
	}
	return out
}

// ---------------------------------------------------------------- R012

// runUnreachableFluent checks event-reachability: a fluent definition must
// bottom out, through the fluents it depends on, at happensAt conditions
// over the input stream — otherwise recognition can never fire. A second
// sub-check flags conditions over fluent values that no rule ever produces.
func runUnreachableFluent(ctx *context) []Diagnostic {
	isFluent := map[string]bool{}
	for _, name := range ctx.defNames {
		d := ctx.defs[name]
		if len(d.simple)+len(d.sd) > 0 {
			isFluent[name] = true
		}
	}
	// Reachability fixpoint. References to names without a fluent definition
	// (input data, background predicates, undefined names — R002's business)
	// count as grounded so one missing definition does not cascade.
	grounded := map[string]bool{}
	clauseGrounds := func(c *lang.Clause) bool {
		for _, l := range c.Body {
			if l.Neg {
				continue
			}
			a := l.Atom
			if a.Kind == lang.Compound && a.Functor == "happensAt" && len(a.Args) == 2 {
				return true
			}
			if _, fl := lang.FluentRef(a); fl != nil {
				if !isFluent[fl.Functor] || grounded[fl.Functor] {
					return true
				}
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for _, name := range ctx.defNames {
			if !isFluent[name] || grounded[name] {
				continue
			}
			d := ctx.defs[name]
			rules := d.sd
			if len(d.simple) > 0 {
				rules = nil
				for _, c := range d.simple {
					if c.Head.Functor == "initiatedAt" {
						rules = append(rules, c)
					}
				}
			}
			for _, c := range rules {
				if clauseGrounds(c) {
					grounded[name] = true
					changed = true
					break
				}
			}
		}
	}
	var out []Diagnostic
	for _, name := range ctx.defNames {
		if !isFluent[name] || grounded[name] {
			continue
		}
		d := ctx.defs[name]
		sev := Warning
		msg := fmt.Sprintf("fluent '%s' never bottoms out at an input event: it can never hold", name)
		if ctx.opts.Roots[name] {
			sev = Error
			msg = fmt.Sprintf("activity '%s' never bottoms out at an input event: recognition can never fire", name)
		}
		hasInit := false
		for _, c := range d.simple {
			if c.Head.Functor == "initiatedAt" {
				hasInit = true
				break
			}
		}
		if len(d.simple) > 0 && !hasInit {
			msg = fmt.Sprintf("simple fluent '%s' has terminatedAt rules but no initiatedAt rule: it can never start", name)
		}
		out = append(out, Diagnostic{Severity: sev, Pos: d.firstPos(), Symbol: name, Message: msg})
	}
	out = append(out, ctx.deadValues(isFluent)...)
	return out
}

// deadValues flags holdsAt/holdsFor conditions over F=V where F is defined
// by the description but no rule ever produces the value V.
func (ctx *context) deadValues(isFluent map[string]bool) []Diagnostic {
	produced := map[string]map[string]bool{} // fluent -> constant values produced
	anyValue := map[string]bool{}            // fluent has a variable-valued head
	for _, name := range ctx.defNames {
		d := ctx.defs[name]
		for _, c := range d.clauses() {
			if c.Head.Functor == "terminatedAt" {
				continue
			}
			fvp, _ := c.HeadFVP()
			if fvp == nil {
				continue
			}
			v := fvp.Args[1]
			if !v.IsConst() {
				anyValue[name] = true
				continue
			}
			if produced[name] == nil {
				produced[name] = map[string]bool{}
			}
			produced[name][v.String()] = true
		}
	}
	seen := map[string]bool{}
	var out []Diagnostic
	for _, c := range ctx.ed.Clauses {
		for _, l := range c.Body {
			a := l.Atom
			fvp, fl := lang.FluentRef(a)
			if fvp == nil {
				continue
			}
			name, v := fl.Functor, fvp.Args[1]
			if !v.IsConst() || !isFluent[name] || anyValue[name] {
				continue
			}
			if produced[name][v.String()] {
				continue
			}
			key := name + "=" + v.String()
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, Diagnostic{Severity: Warning, Pos: a.Pos, Symbol: name,
				Message: fmt.Sprintf("no rule ever makes '%s' hold: this condition can never be satisfied", fvp)})
		}
	}
	return out
}

// ---------------------------------------------------------------- R013

// numericSortNames identify pattern argument names that denote quantities;
// comparing them with numbers is fine, comparing entity identifiers is not.
var numericSortNames = []string{
	"speed", "min", "max", "limit", "heading", "courseoverground", "cog",
	"distance", "duration", "count", "level", "rate", "value", "threshold",
	"quantity", "amount", "weight", "temperature",
}

func numericSort(s string) bool {
	if s == "number" {
		return true
	}
	for _, n := range numericSortNames {
		if s == n || strings.HasSuffix(s, n) {
			return true
		}
	}
	return false
}

// numericComparison reports whether a condition compares two arithmetic
// expressions (< > =< >= =:= =\=).
func numericComparison(a *lang.Term) bool {
	op, _ := lang.Operator(a.Functor)
	return op.Class == lang.OpCompare && len(a.Args) == 2
}

// sortUse is one sort assignment of a variable within a clause.
type sortUse struct {
	sort string
	pos  lang.Position
}

// runSortInference infers the sort of each variable of a clause — entity
// sorts from the documented argument positions it occupies, numeric from
// threshold bindings and numeric comparisons — and flags two kinds of
// clash: a variable used under two unrelated entity sorts, and an entity
// identifier used in a numeric comparison.
func runSortInference(ctx *context) []Diagnostic {
	if len(ctx.opts.Sorts) == 0 {
		return nil
	}
	var out []Diagnostic
	for _, c := range ctx.ed.Clauses {
		uses := map[string][]sortUse{}
		numericVar := map[string]bool{}
		record := func(t *lang.Term) {
			sig, ok := ctx.opts.Sorts[t.Functor]
			if !ok {
				return
			}
			for i, a := range t.Args {
				if i >= len(sig) || a.Kind != lang.Var || strings.HasPrefix(a.Functor, "_") {
					continue
				}
				uses[a.Functor] = append(uses[a.Functor], sortUse{sig[i], a.Pos})
			}
		}
		var comparisons []*lang.Term
		scan := func(a *lang.Term) {
			if a.Kind != lang.Compound {
				return
			}
			_, fl := lang.FluentRef(a)
			switch {
			case a.Functor == "happensAt" && len(a.Args) == 2 && a.Args[0].IsCallable():
				record(a.Args[0])
			case fl != nil:
				record(fl)
			case a.Functor == "thresholds" && len(a.Args) == 2:
				if v := a.Args[1]; v.Kind == lang.Var {
					numericVar[v.Functor] = true
				}
			case numericComparison(a):
				comparisons = append(comparisons, a)
				for _, side := range a.Args {
					other := a.Args[0]
					if side == a.Args[0] {
						other = a.Args[1]
					}
					if side.Kind == lang.Var && isNumericTerm(other, nil) {
						numericVar[side.Functor] = true
					}
				}
			default:
				record(a)
			}
		}
		if _, fl := c.HeadFVP(); fl != nil {
			record(fl)
		} else if c.Head.IsCallable() {
			record(c.Head)
		}
		for _, l := range c.Body {
			scan(l.Atom)
		}
		// Clash 1: one variable, two unrelated entity sorts.
		for _, us := range uses {
			for i := 1; i < len(us); i++ {
				a, b := us[0], us[i]
				if a.sort == b.sort || (numericSort(a.sort) && numericSort(b.sort)) {
					continue
				}
				out = append(out, Diagnostic{Severity: Warning, Pos: b.pos, Symbol: sortVarName(uses, b),
					Message: fmt.Sprintf("variable used as a '%s' here but as a '%s' at %s: argument sorts clash", b.sort, a.sort, a.pos)})
				break
			}
		}
		// Clash 2: an entity identifier in a numeric comparison.
		for _, cmp := range comparisons {
			for k, side := range cmp.Args {
				if side.Kind != lang.Var || numericVar[side.Functor] {
					continue
				}
				us := uses[side.Functor]
				if len(us) == 0 || anyNumericSort(us) {
					continue
				}
				if !isNumericTerm(cmp.Args[1-k], numericVar) && !sideHasNumericSort(cmp.Args[1-k], uses) {
					continue
				}
				out = append(out, Diagnostic{Severity: Warning, Pos: side.Pos, Symbol: side.Functor,
					Message: fmt.Sprintf("'%s' is a %s identifier, not a quantity: comparing it with a numeric value cannot be meaningful", side.Functor, us[0].sort)})
			}
		}
	}
	return out
}

// sortVarName recovers the variable name owning a use (uses is keyed by it).
func sortVarName(uses map[string][]sortUse, u sortUse) string {
	for name, us := range uses {
		for _, cand := range us {
			if cand == u {
				return name
			}
		}
	}
	return ""
}

func anyNumericSort(us []sortUse) bool {
	for _, u := range us {
		if numericSort(u.sort) {
			return true
		}
	}
	return false
}

// isNumericTerm reports whether a term is numeric evidence: a number, an
// arithmetic expression, or a variable already known numeric.
func isNumericTerm(t *lang.Term, numericVar map[string]bool) bool {
	switch t.Kind {
	case lang.Int, lang.Float:
		return true
	case lang.Var:
		return numericVar[t.Functor]
	case lang.Compound:
		op, _ := lang.Operator(t.Functor)
		return op.Class == lang.OpArith || t.Functor == "abs" || t.Functor == "absAngleDiff"
	}
	return false
}

// sideHasNumericSort reports whether a comparison operand is a variable
// carrying a numeric entity sort.
func sideHasNumericSort(t *lang.Term, uses map[string][]sortUse) bool {
	return t.Kind == lang.Var && anyNumericSort(uses[t.Functor])
}

// ---------------------------------------------------------------- R014

// bound is a normalized one-sided numeric constraint Var (op) Val.
type bound struct {
	idx    int // body literal index
	val    float64
	strict bool
	lit    lang.Literal
}

// runRedundantCondition reports body conditions that are exact duplicates
// of an earlier condition, and numeric comparisons subsumed by a strictly
// stronger comparison over the same variable in the same body.
func runRedundantCondition(ctx *context) []Diagnostic {
	var out []Diagnostic
	for _, c := range ctx.ed.Clauses {
		if len(c.Body) < 2 {
			continue
		}
		flagged := map[int]bool{}
		seen := map[string]int{}
		for i, l := range c.Body {
			key := l.String()
			if j, dup := seen[key]; dup {
				flagged[i] = true
				d := Diagnostic{Severity: Warning, Pos: l.Atom.Pos,
					Message: fmt.Sprintf("condition '%s' duplicates the condition at %s", l, c.Body[j].Atom.Pos)}
				if fix, ok := ctx.deleteLiteralFix(c, i, "delete the duplicated condition"); ok {
					d.SuggestedFixes = []SuggestedFix{fix}
				}
				out = append(out, d)
				continue
			}
			seen[key] = i
		}
		// Comparison subsumption: group one-sided numeric bounds per
		// (variable, direction); every bound weaker than the strongest is
		// redundant.
		lower := map[string][]bound{}
		upper := map[string][]bound{}
		for i, l := range c.Body {
			if l.Neg || flagged[i] {
				continue
			}
			v, b, isLower, ok := normalizeBound(l, i)
			if !ok {
				continue
			}
			if isLower {
				lower[v] = append(lower[v], b)
			} else {
				upper[v] = append(upper[v], b)
			}
		}
		report := func(groups map[string][]bound, isLower bool) {
			for _, bs := range groups {
				if len(bs) < 2 {
					continue
				}
				best := bs[0]
				for _, b := range bs[1:] {
					if boundStronger(b, best, isLower) {
						best = b
					}
				}
				for _, b := range bs {
					if b.idx == best.idx || boundStronger(b, best, isLower) {
						continue
					}
					d := Diagnostic{Severity: Warning, Pos: b.lit.Atom.Pos,
						Message: fmt.Sprintf("condition '%s' is implied by '%s' at %s", b.lit, best.lit, best.lit.Atom.Pos)}
					if fix, ok := ctx.deleteLiteralFix(c, b.idx, "delete the subsumed condition"); ok {
						d.SuggestedFixes = []SuggestedFix{fix}
					}
					out = append(out, d)
				}
			}
		}
		report(lower, true)
		report(upper, false)
	}
	return out
}

// normalizeBound turns a comparison literal with a variable on one side and
// a number on the other into a one-sided bound on the variable.
func normalizeBound(l lang.Literal, idx int) (v string, b bound, isLower, ok bool) {
	a := l.Atom
	if a.Kind != lang.Compound || len(a.Args) != 2 {
		return "", bound{}, false, false
	}
	var strict, lowerIfVarLeft bool
	switch a.Functor {
	case ">":
		strict, lowerIfVarLeft = true, true
	case ">=":
		strict, lowerIfVarLeft = false, true
	case "<":
		strict, lowerIfVarLeft = true, false
	case "=<":
		strict, lowerIfVarLeft = false, false
	default:
		return "", bound{}, false, false
	}
	x, y := a.Args[0], a.Args[1]
	if x.Kind == lang.Var {
		if n, isNum := y.Number(); isNum {
			return x.Functor, bound{idx: idx, val: n, strict: strict, lit: l}, lowerIfVarLeft, true
		}
	}
	if y.Kind == lang.Var {
		if n, isNum := x.Number(); isNum {
			// 5 < X is a lower bound on X.
			return y.Functor, bound{idx: idx, val: n, strict: strict, lit: l}, !lowerIfVarLeft, true
		}
	}
	return "", bound{}, false, false
}

// boundStronger reports whether bound a strictly implies bound b.
func boundStronger(a, b bound, isLower bool) bool {
	if a.val == b.val {
		return a.strict && !b.strict
	}
	if isLower {
		return a.val > b.val
	}
	return a.val < b.val
}

// ---------------------------------------------------------------- R015

// runNeverTerminated reports simple fluent values that are initiated but
// can never end: no terminatedAt rule covers the value and no other value
// of the same fluent is ever initiated (in RTEC, initiating F=V' terminates
// F=V).
func runNeverTerminated(ctx *context) []Diagnostic {
	var out []Diagnostic
	for _, name := range ctx.defNames {
		d := ctx.defs[name]
		if len(d.simple) == 0 || len(d.sd) > 0 {
			continue
		}
		type vinfo struct {
			pos lang.Position
			fvp string
		}
		initiated := map[string]vinfo{}
		var order []string
		terminated := map[string]bool{}
		varInit, varTerm := false, false
		for _, c := range d.simple {
			fvp, _ := c.HeadFVP()
			if fvp == nil {
				continue
			}
			v := fvp.Args[1]
			key := v.String()
			if c.Head.Functor == "initiatedAt" {
				if !v.IsConst() {
					varInit = true
					continue
				}
				if _, ok := initiated[key]; !ok {
					initiated[key] = vinfo{c.Pos, fvp.String()}
					order = append(order, key)
				}
			} else {
				if !v.IsConst() {
					varTerm = true
					continue
				}
				terminated[key] = true
			}
		}
		if varInit || varTerm || len(initiated) > 1 {
			continue
		}
		for _, key := range order {
			if terminated[key] {
				continue
			}
			vi := initiated[key]
			out = append(out, Diagnostic{Severity: Warning, Pos: vi.pos, Symbol: name,
				Message: fmt.Sprintf("simple fluent '%s' is initiated here but never terminated: once recognised it holds forever", vi.fvp)})
		}
	}
	return out
}

// ---------------------------------------------------------------- R016

// runVacuousThreshold constant-folds comparisons whose operands are numbers,
// arithmetic over numbers, or variables bound by 'thresholds' facts with
// known values (declared in the description or via Options.Constants).
// Always-true comparisons are dead weight (warning, with a deletion fix);
// always-false comparisons kill the rule (error).
func runVacuousThreshold(ctx *context) []Diagnostic {
	declared := map[string]float64{}
	for _, c := range ctx.ed.Clauses {
		if !c.IsFact() || c.Head.Functor != "thresholds" || len(c.Head.Args) != 2 {
			continue
		}
		name, v := c.Head.Args[0], c.Head.Args[1]
		if name.Kind != lang.Atom {
			continue
		}
		if n, ok := v.Number(); ok {
			declared[name.Functor] = n
		}
	}
	thresholdValue := func(name string) (float64, bool) {
		if v, ok := declared[name]; ok {
			return v, true
		}
		v, ok := ctx.opts.Constants[name]
		return v, ok
	}
	var out []Diagnostic
	for _, c := range ctx.ed.Clauses {
		if c.IsFact() {
			continue
		}
		known := map[string]float64{} // by the variable the rule reads the threshold into
		for _, l := range c.Body {
			a := l.Atom
			if l.Neg || a.Kind != lang.Compound || a.Functor != "thresholds" || len(a.Args) != 2 {
				continue
			}
			name, v := a.Args[0], a.Args[1]
			if name.Kind != lang.Atom || v.Kind != lang.Var {
				continue
			}
			if val, ok := thresholdValue(name.Functor); ok {
				known[v.Functor] = val
			}
		}
		// The comparisons fold under the engine's own evaluator: as written
		// or, with thresholds known, numbered into a binding store that
		// binds them.
		body, env := c.Body, (*lang.Bindings)(nil)
		if len(known) > 0 {
			var vt lang.VarTable
			body, env = vt.NumberClause(c).Body, new(lang.Bindings)
			env.Reset(vt.Len())
			for _, l := range body {
				l.Atom.Walk(func(n *lang.Term) bool {
					if val, ok := known[n.Functor]; ok && n.Kind == lang.Var {
						env.Unify(n, lang.NewFloat(val))
					}
					return true
				})
			}
		}
		for i, l := range body {
			a := l.Atom
			if !numericComparison(a) && !(a.Functor == "\\=" && len(a.Args) == 2) {
				continue
			}
			verdict, why, ok := foldCompare(a, env)
			if !ok {
				continue
			}
			if verdict {
				d := Diagnostic{Severity: Warning, Pos: a.Pos,
					Message: fmt.Sprintf("comparison '%s' is always true %s: it never constrains the rule", a, why)}
				if fix, ok := ctx.deleteLiteralFix(c, i, "delete the vacuous comparison"); ok {
					d.SuggestedFixes = []SuggestedFix{fix}
				}
				out = append(out, d)
			} else {
				out = append(out, Diagnostic{Severity: Error, Pos: a.Pos,
					Message: fmt.Sprintf("comparison '%s' is always false %s: the rule can never fire", a, why)})
			}
		}
	}
	return out
}

// foldCompare decides a comparison whose operands both evaluate, under the
// known thresholds, as the engine would evaluate them (kb.EvalArith), or
// whose two sides are the same variable. '\=' over numbers is folded as =\=.
func foldCompare(a *lang.Term, env *lang.Bindings) (verdict bool, why string, ok bool) {
	x, y := a.Args[0], a.Args[1]
	if x.Kind == lang.Var && y.Kind == lang.Var && x.Functor == y.Functor {
		// X op X is what the operator says of any number against itself.
		return kb.Compare(a.Functor, 0, 0), fmt.Sprintf("(both sides are '%s')", x.Functor), true
	}
	lv, lerr := kb.EvalArith(x, env)
	rv, rerr := kb.EvalArith(y, env)
	if lerr != nil || rerr != nil {
		return false, "", false
	}
	return kb.Compare(a.Functor, lv, rv), fmt.Sprintf("(%v %s %v)", lv, a.Functor, rv), true
}
