package rtec

import (
	"fmt"

	"rtecgen/internal/kb"
	"rtecgen/internal/lang"
)

// This file compiles temporal rules. Everything about a rule that does not
// depend on the window — its variables renamed apart and numbered into
// binding-store slots, each body condition's evaluation strategy, the anchor
// of an initiatedAt/terminatedAt rule and the conditions left once the anchor
// is taken out, which anchor arguments bind a fresh slot, each background
// condition's access path into the knowledge base, the grounding
// declarations of a holdsFor rule brought into the rule's slot space — is
// computed here, once, when New loads the event description. A compiled rule
// is immutable and shared by every window, revision and concurrent run.
//
// Renaming keeps the variable names the engine has always printed ("_r" for a
// rule, "_g<i>" for its i-th grounding declaration): warnings and non-ground
// termination patterns render variables by name, and those bytes are part of
// the output contract. Slots are only how the evaluator finds a variable's
// binding.

// condKind is how one body condition is evaluated.
type condKind uint8

const (
	condBuiltin    condKind = iota // comparison, =, \=, absAngleDiff
	condHappensAt                  // happensAt(E, T) beyond the anchor
	condHoldsAt                    // holdsAt(F=V, T)
	condHoldsFor                   // holdsFor(F=V, I); invalid in a simple-fluent rule
	condUnion                      // union_all([I...], I)
	condIntersect                  // intersect_all([I...], I)
	condRelComp                    // relative_complement_all(I, [I...], I)
	condBackground                 // atemporal background knowledge
)

type cond struct {
	kind condKind
	neg  bool
	atom *lang.Term
	// facts is a background condition's access path into the engine's
	// knowledge base, which does not change after New; nil for any other
	// condition.
	facts *kb.Lookup
}

// rule is a compiled initiatedAt, terminatedAt or holdsFor rule.
type rule struct {
	src   *lang.Clause // the clause as written
	nvars int          // size of the rule's binding store
	head  *lang.Term   // the head fluent-value pair F=V
	// body holds the conditions to solve: all of them for a holdsFor rule,
	// the ones other than the anchor for a simple-fluent rule.
	body []cond
	// pattern and timeArg are the anchor happensAt(pattern, timeArg) of a
	// simple-fluent rule: its first positive happensAt condition.
	pattern, timeArg *lang.Term
	// argSlots holds, per argument of pattern, the slot of the variable that
	// argument is when it is that variable's first occurrence in the anchor,
	// and -1 otherwise; timeSlot is the same for timeArg. The anchor is
	// unified first, into an empty store, so such a slot is bound directly
	// to the event's argument (see bindAnchor).
	argSlots []int
	timeSlot int
	// ivar is the head interval variable of a holdsFor rule (nil otherwise),
	// groundings the fluent's grounding declarations.
	ivar       *lang.Term
	groundings []grounding
	// numbered holds the rule's clause and then its grounding declarations as
	// the evaluator sees them, variables numbered into the rule's slot space:
	// what the definition fingerprint renders (Engine.fingerprint).
	numbered []*lang.Clause
}

// grounding is one declaration grounding(fluent) :- body, numbered in the
// slot space of the rule it grounds.
type grounding struct {
	fluent *lang.Term
	body   []lang.Literal
}

// compileRule compiles a temporal rule that passed checkSimpleRule or
// checkSDRule; groundings are the declarations for a holdsFor rule's fluent,
// background the knowledge base its background conditions read.
func compileRule(c *lang.Clause, groundings []*lang.Clause, background *kb.KB) *rule {
	var vt lang.VarTable
	rc := vt.NumberClause(c.RenameApart("_r"))
	r := &rule{src: c, head: rc.Head.Args[0]}
	sd := c.Kind() == lang.KindHoldsFor
	if sd {
		r.ivar = rc.Head.Args[1]
	}
	anchor := rc.Anchor() // -1 in a holdsFor rule: checkSDRule admits no happensAt
	for i, l := range rc.Body {
		if i == anchor {
			r.pattern, r.timeArg = l.Atom.Args[0], l.Atom.Args[1]
			r.argSlots, r.timeSlot = anchorSlots(r.pattern, r.timeArg)
			continue
		}
		cd := cond{kind: classify(l.Atom, sd), neg: l.Neg, atom: l.Atom}
		if cd.kind == condBackground {
			cd.facts = background.Lookup(l.Atom)
		}
		r.body = append(r.body, cd)
	}
	r.numbered = []*lang.Clause{rc}
	for gi, g := range groundings {
		gc := vt.NumberClause(g.RenameApart(fmt.Sprintf("_g%d", gi)))
		r.groundings = append(r.groundings, grounding{fluent: gc.Head.Args[0], body: gc.Body})
		r.numbered = append(r.numbered, gc)
	}
	r.nvars = vt.Len()
	return r
}

// anchorSlots computes rule.argSlots and rule.timeSlot for the anchor
// happensAt(pattern, timeArg). A variable seen earlier in the anchor — in an
// earlier argument, or nested in one — is already bound when its argument is
// reached, and is unified like a constant.
func anchorSlots(pattern, timeArg *lang.Term) (argSlots []int, timeSlot int) {
	seen := map[int64]bool{}
	fresh := func(t *lang.Term) int {
		if t.Kind == lang.Var && !seen[t.Int] {
			seen[t.Int] = true
			return int(t.Int - 1)
		}
		t.Walk(func(s *lang.Term) bool {
			if s.Kind == lang.Var {
				seen[s.Int] = true
			}
			return true
		})
		return -1
	}
	if pattern.IsCallable() {
		argSlots = make([]int, len(pattern.Args))
		for i, a := range pattern.Args {
			argSlots[i] = fresh(a)
		}
	}
	return argSlots, fresh(timeArg)
}

// bindAnchor binds the rule's anchor to an event of the pattern's predicate
// at the time-point whose term is at, in a store reset for the rule: it is
// Unify(happensAt(pattern, timeArg), happensAt(event, at)) with each
// argument that is a variable's first occurrence bound to its slot without a
// walk. On failure the store is left partly bound; the next unit resets it.
func (r *rule) bindAnchor(b *lang.Bindings, event, at *lang.Term) bool {
	for i, s := range r.argSlots {
		if s >= 0 {
			b.BindSlot(s, event.Args[i])
		} else if !b.Unify(r.pattern.Args[i], event.Args[i]) {
			return false
		}
	}
	if r.timeSlot >= 0 {
		b.BindSlot(r.timeSlot, at)
		return true
	}
	return b.Unify(r.timeArg, at)
}

// classify picks the evaluation strategy of a body condition. The temporal
// predicates mean something only in the kind of rule that may contain them:
// an interval construct in a simple-fluent rule is an (unknown) background
// predicate, and checkSDRule has already rejected happensAt and holdsAt in a
// holdsFor rule.
func classify(atom *lang.Term, sd bool) condKind {
	switch {
	case atom.Kind == lang.Compound && kb.IsBuiltinPred(atom.Functor, len(atom.Args)):
		return condBuiltin
	case atom.Functor == "holdsFor":
		return condHoldsFor
	case sd && atom.Functor == "union_all":
		return condUnion
	case sd && atom.Functor == "intersect_all":
		return condIntersect
	case sd && atom.Functor == "relative_complement_all":
		return condRelComp
	case !sd && atom.Functor == "happensAt" && len(atom.Args) == 2:
		return condHappensAt
	case !sd && atom.Functor == "holdsAt" && len(atom.Args) == 2:
		return condHoldsAt
	}
	return condBackground
}
