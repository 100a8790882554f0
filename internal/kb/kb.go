// Package kb implements the atemporal background knowledge base of an RTEC
// event description: ground facts (area types, vessel types, thresholds),
// non-temporal auxiliary rules (e.g. "one of the pair is a tug"), and their
// materialisation to a fixpoint, together with conjunctive query evaluation
// with negation-by-failure and arithmetic builtins. Both the RTEC engine and
// the grounding of statically determined fluents query the KB.
package kb

import (
	"fmt"
	"sort"
	"strconv"

	"rtecgen/internal/lang"
)

// KB is a background knowledge base. Populate with AddFact/AddRule (or
// FromEventDescription), call Materialize once, then Query freely. A KB is
// not safe for concurrent mutation; queries after materialisation are
// read-only and may run concurrently.
type KB struct {
	facts   map[lang.PredKey][]*lang.Term // by predicate
	byFirst map[argKey][]*lang.Term       // by predicate + ground first argument
	present map[string]bool               // canonical strings, for dedup
	keys    []string                      // the same strings, in insertion order
	rules   []*lang.Clause
}

// New returns an empty knowledge base.
func New() *KB {
	return &KB{
		facts:   map[lang.PredKey][]*lang.Term{},
		byFirst: map[argKey][]*lang.Term{},
		present: map[string]bool{},
	}
}

// argKey is the first-argument index key: the predicate plus a canonical
// encoding of its ground first argument. Atom first arguments (the common
// case: entity identifiers) index without any string building.
type argKey struct {
	pred lang.PredKey
	kind lang.Kind
	arg  string
}

// firstArgKey builds the first-argument index key for a callable term whose
// first argument is ground under b (nil for a term taken as written); ok is
// false when the index does not apply.
func firstArgKey(t *lang.Term, b *lang.Bindings) (argKey, bool) {
	if len(t.Args) == 0 {
		return argKey{}, false
	}
	a := b.Walk(t.Args[0])
	k := argKey{pred: t.Pred(), kind: a.Kind}
	switch a.Kind {
	case lang.Atom:
		k.arg = a.Functor
	case lang.Str:
		k.arg = a.Text
	case lang.Int:
		k.arg = strconv.FormatInt(a.Int, 10)
	default:
		if !b.IsGround(a) {
			return argKey{}, false
		}
		k.arg = b.Resolve(a).String()
	}
	return k, true
}

// AddFact inserts a ground fact; duplicates are ignored. Non-ground or
// non-callable terms are rejected.
func (k *KB) AddFact(t *lang.Term) error {
	if !t.IsCallable() {
		return fmt.Errorf("kb: fact %s is not callable", t)
	}
	if !t.IsGround() {
		return fmt.Errorf("kb: fact %s is not ground", t)
	}
	key := t.String()
	if k.present[key] {
		return nil
	}
	k.present[key] = true
	k.keys = append(k.keys, key)
	pred := t.Pred()
	k.facts[pred] = append(k.facts[pred], t)
	if fk, ok := firstArgKey(t, nil); ok {
		k.byFirst[fk] = append(k.byFirst[fk], t)
	}
	return nil
}

// AddRule registers a non-temporal rule for materialisation.
func (k *KB) AddRule(c *lang.Clause) { k.rules = append(k.rules, c) }

// Has reports whether the exact ground fact is present.
func (k *KB) Has(t *lang.Term) bool { return k.present[t.String()] }

// FactsOfPred returns the facts of a predicate.
func (k *KB) FactsOfPred(pred lang.PredKey) []*lang.Term { return k.facts[pred] }

// Indicators returns the sorted indicators of all stored facts.
func (k *KB) Indicators() []string {
	out := make([]string, 0, len(k.facts))
	for pred := range k.facts {
		out = append(out, pred.String())
	}
	sort.Strings(out)
	return out
}

// Size returns the total number of stored facts.
func (k *KB) Size() int { return len(k.present) }

// AppendText appends the canonical text of the KB to dst: every stored fact
// in insertion order, each preceded by its length so that no fact's text can
// be mistaken for a boundary. Match enumerates facts in insertion order, so
// two materialised KBs with equal texts answer every Match, Query and
// FactsOfPred identically, answer order included.
func (k *KB) AppendText(dst []byte) []byte {
	for _, key := range k.keys {
		dst = strconv.AppendInt(dst, int64(len(key)), 10)
		dst = append(dst, ':')
		dst = append(dst, key...)
	}
	return dst
}

// Materialize evaluates the registered rules to a fixpoint, adding every
// derivable ground head as a fact. Background rules must not recurse through
// negation; with such rules the fixpoint may depend on rule order.
func (k *KB) Materialize() error {
	var b lang.Bindings
	for round := 0; ; round++ {
		if round > 10000 {
			return fmt.Errorf("kb: materialisation did not converge after %d rounds", round)
		}
		added := false
		for _, r := range k.rules {
			var vt lang.VarTable
			ren := vt.NumberClause(r.RenameApart(fmt.Sprintf("_m%d", round)))
			b.Reset(vt.Len())
			// The heads are collected first and added after the query: a fact
			// added mid-enumeration would be visible to part of it.
			var heads []*lang.Term
			if err := k.Query(ren.Body, &b, func() { heads = append(heads, b.Resolve(ren.Head)) }); err != nil {
				return fmt.Errorf("kb: rule %s: %w", r.Head, err)
			}
			for _, h := range heads {
				if !h.IsGround() {
					return fmt.Errorf("kb: rule for %s derived non-ground fact %s", r.Head, h)
				}
				if !k.present[h.String()] {
					if err := k.AddFact(h); err != nil {
						return err
					}
					added = true
				}
			}
		}
		if !added {
			return nil
		}
	}
}

// Match enumerates the stored facts that unify with goal under b, in
// insertion order: for each one b is extended in place, yield is called, and
// the extension is undone. Goals whose first argument is ground use the
// first-argument index, so e.g. vesselType(v17, Type) is a constant-time
// lookup regardless of fleet size. Only variables numbered into b's slot
// space bind (see lang.Bindings); any other variable matches nothing.
func (k *KB) Match(goal *lang.Term, b *lang.Bindings, yield func()) {
	goal = b.Walk(goal)
	var candidates []*lang.Term
	if fk, ok := firstArgKey(goal, b); ok {
		candidates = k.byFirst[fk]
	} else {
		candidates = k.facts[goal.Pred()]
	}
	for _, f := range candidates {
		if mark := b.Mark(); b.Unify(goal, f) {
			yield()
			b.Undo(mark)
		}
	}
}

// Query evaluates a conjunction of literals over the KB with backtracking,
// handling builtins and negation-by-failure, and calls yield once per answer
// with b extended to it. Negated literals and builtin comparisons must be
// ground at evaluation time (under the earlier bindings); otherwise an error
// is returned, mirroring the safety requirement of negation-by-failure — a
// caller must then discard the answers it was handed before the error.
func (k *KB) Query(body []lang.Literal, b *lang.Bindings, yield func()) error {
	if len(body) == 0 {
		yield()
		return nil
	}
	lit, rest := body[0], body[1:]
	if lit.Neg {
		found := false
		if err := k.solveOne(lit.Atom, b, func() { found = true }); err != nil || found {
			return err
		}
		return k.Query(rest, b, yield)
	}
	var inner error
	err := k.solveOne(lit.Atom, b, func() {
		if inner == nil {
			inner = k.Query(rest, b, yield)
		}
	})
	if err != nil {
		return err
	}
	return inner
}

// solveOne solves a single positive goal: builtin first, then fact lookup.
func (k *KB) solveOne(atom *lang.Term, b *lang.Bindings, yield func()) error {
	mark := b.Mark()
	if ok, handled, err := SolveBuiltin(atom, b); handled {
		if ok {
			yield()
			b.Undo(mark)
		}
		return err
	}
	k.Match(atom, b, yield)
	return nil
}

// IsDeclaration reports whether a fact head is an event-description
// declaration (inputEvent/1, simpleFluent/1, sdFluent/1) rather than
// background knowledge. Declarations are typically non-ground.
func IsDeclaration(head *lang.Term) bool {
	switch head.Indicator() {
	case "inputEvent/1", "simpleFluent/1", "sdFluent/1":
		return true
	}
	return false
}

// FromEventDescription builds a KB from the facts and background rules of an
// event description (declaration facts such as inputEvent/1 are skipped;
// the engine interprets those directly) and materialises it. Extra facts,
// e.g. the dynamic entity registry extracted from a stream, are added before
// materialisation.
func FromEventDescription(ed *lang.EventDescription, extra ...*lang.Term) (*KB, error) {
	k := New()
	for _, c := range ed.Facts() {
		if IsDeclaration(c.Head) {
			continue // engine declarations, not background knowledge
		}
		if err := k.AddFact(c.Head); err != nil {
			return nil, err
		}
	}
	for _, c := range ed.BackgroundRules() {
		if c.Head.Functor == "grounding" {
			continue // grounding declarations are handled by the engine
		}
		k.AddRule(c)
	}
	for _, f := range extra {
		if err := k.AddFact(f); err != nil {
			return nil, err
		}
	}
	if err := k.Materialize(); err != nil {
		return nil, err
	}
	return k, nil
}
