package rtec

import "rtecgen/internal/lang"

// ruleReads walks the body of a temporal rule the way New draws the
// dependency graph: it calls read with the indicator of every fluent a body
// condition names, and reports whether the rule names every fluent it can
// read. It does not when a holdsAt/holdsFor condition's fluent is bound
// only at run time (holdsAt(F=V, T) with a variable F), which can read any
// fluent's intervals.
func ruleReads(c *lang.Clause, read func(ind string)) (named bool) {
	named = true
	sd := c.Kind() == lang.KindHoldsFor
	for _, l := range c.Body {
		if _, fl := lang.FluentRef(l.Atom); fl != nil {
			read(fl.Indicator())
		} else if k := classify(l.Atom, sd); k == condHoldsAt || k == condHoldsFor {
			named = false
		}
	}
	return named
}

// demandClosure returns the indicators of the fluents whose rules the
// recognition of the fluents root selects reads: those fluents and,
// transitively, every fluent a rule of one of them names in a body
// condition (ruleReads, the edges New draws). ok is false when such a rule
// names a fluent only at run time: then any fluent may be read.
func demandClosure(ed *lang.EventDescription, root func(fluent *lang.Term) bool) (closure map[string]bool, ok bool) {
	byFluent := ed.RulesByFluent()
	closure = map[string]bool{}
	var queue []string
	add := func(ind string) {
		if !closure[ind] {
			closure[ind] = true
			queue = append(queue, ind)
		}
	}
	for _, c := range ed.Rules() {
		if _, fl := c.HeadFVP(); fl != nil && root(fl) {
			add(fl.Indicator())
		}
	}
	for len(queue) > 0 {
		ind := queue[0]
		queue = queue[1:]
		for _, c := range byFluent[ind] {
			if !ruleReads(c, add) {
				return nil, false
			}
		}
	}
	return closure, true
}

// Demand returns ed without the temporal rules of the fluents that the
// recognition of the fluents root selects never reads; every other clause —
// facts, background rules, grounding and inputEvent declarations, rules with
// a malformed head — is kept, in order. An engine loaded from the result
// recognises each kept fluent exactly as one loaded from ed does, since a
// fluent's intervals depend only on its own rules and on those of the
// fluents it reads. ok is false, and ed is returned as it is, when a kept
// rule names the fluent of a holdsAt/holdsFor condition only at run time.
func Demand(ed *lang.EventDescription, root func(fluent *lang.Term) bool) (*lang.EventDescription, bool) {
	closure, ok := demandClosure(ed, root)
	if !ok {
		return ed, false
	}
	out := &lang.EventDescription{Clauses: make([]*lang.Clause, 0, len(ed.Clauses))}
	for _, c := range ed.Clauses {
		if _, fl := c.HeadFVP(); fl != nil && !closure[fl.Indicator()] {
			continue
		}
		out.Clauses = append(out.Clauses, c)
	}
	return out, true
}
