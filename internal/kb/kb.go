// Package kb implements the atemporal background knowledge base of an RTEC
// event description: ground facts (area types, vessel types, thresholds),
// non-temporal auxiliary rules (e.g. "one of the pair is a tug"), and their
// materialisation to a fixpoint, together with conjunctive query evaluation
// with negation-by-failure and arithmetic builtins. Both the RTEC engine and
// the grounding of statically determined fluents query the KB.
package kb

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strconv"

	"rtecgen/internal/lang"
)

// KB is a background knowledge base. Populate with AddFact/AddRule (or
// FromEventDescription), call Materialize once, then Query freely. A KB is
// not safe for concurrent mutation; queries after materialisation are
// read-only and may run concurrently.
type KB struct {
	preds   map[lang.PredKey]*predFacts
	present map[string]bool // canonical strings, for dedup
	keys    []string        // the same strings, in insertion order
	rules   []*lang.Clause
}

// New returns an empty knowledge base.
func New() *KB {
	return &KB{
		preds:   map[lang.PredKey]*predFacts{},
		present: map[string]bool{},
	}
}

// predFacts holds the facts of one predicate, in insertion order, and the
// same facts grouped by first argument.
type predFacts struct {
	all     []*lang.Term
	byFirst map[argKey][]*lang.Term // nil for a predicate of arity 0
}

// argKey is a first argument as the index keys it: an atom by name, a number
// by value (5 and 5.0 unify, so they share a key), anything else by a
// canonical text with the same property.
type argKey struct {
	kind byte // keyAtom, keyNum or keyText
	name string
	num  float64
}

const (
	keyAtom byte = iota
	keyNum
	keyText
)

// firstKey returns the index key of a first argument read through b (nil
// for a term taken as written); ok is false when it is not ground there, and
// every fact of the predicate is a candidate.
func firstKey(a *lang.Term, b *lang.Bindings) (k argKey, ok bool) {
	a = b.Walk(a)
	switch a.Kind {
	case lang.Atom:
		return argKey{kind: keyAtom, name: a.Functor}, true
	case lang.Int, lang.Float:
		n, _ := a.Number()
		return argKey{kind: keyNum, num: n}, true
	}
	if !b.IsGround(a) {
		return argKey{}, false
	}
	return argKey{kind: keyText, name: string(appendKey(nil, a, b))}, true
}

// appendKey appends the canonical encoding of a ground term read through b:
// terms that unify encode alike. Names are length-prefixed, so no name's
// content can be read as structure.
func appendKey(dst []byte, t *lang.Term, b *lang.Bindings) []byte {
	t = b.Walk(t)
	switch t.Kind {
	case lang.Atom:
		dst = appendName(append(dst, 'a'), t.Functor)
	case lang.Int, lang.Float:
		n, _ := t.Number()
		if n == 0 {
			n = 0 // -0.0 unifies with 0
		}
		dst = binary.LittleEndian.AppendUint64(append(dst, 'n'), math.Float64bits(n))
	case lang.Str:
		dst = appendName(append(dst, 's'), t.Functor)
	case lang.Compound, lang.List:
		if t.Kind == lang.Compound {
			dst = appendName(append(dst, 'c'), t.Functor)
		} else {
			dst = append(dst, 'l')
		}
		dst = binary.AppendUvarint(dst, uint64(len(t.Args)))
		for _, a := range t.Args {
			dst = appendKey(dst, a, b)
		}
	}
	return dst
}

func appendName(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// candidates returns the facts that can unify with goal under b, in
// insertion order: the ones sharing its first argument's key when that is
// ground, all of them otherwise.
func (p *predFacts) candidates(goal *lang.Term, b *lang.Bindings) []*lang.Term {
	if p.byFirst == nil {
		return p.all
	}
	if k, ok := firstKey(goal.Args[0], b); ok {
		return p.byFirst[k]
	}
	return p.all
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
	p := k.preds[t.Pred()]
	if p == nil {
		p = &predFacts{}
		if len(t.Args) > 0 {
			p.byFirst = map[argKey][]*lang.Term{}
		}
		k.preds[t.Pred()] = p
	}
	p.all = append(p.all, t)
	if p.byFirst != nil {
		fk, _ := firstKey(t.Args[0], nil)
		p.byFirst[fk] = append(p.byFirst[fk], t)
	}
	return nil
}

// AddRule registers a non-temporal rule for materialisation.
func (k *KB) AddRule(c *lang.Clause) { k.rules = append(k.rules, c) }

// Has reports whether the exact ground fact is present.
func (k *KB) Has(t *lang.Term) bool { return k.present[t.String()] }

// Indicators returns the sorted indicators of all stored facts.
func (k *KB) Indicators() []string {
	out := make([]string, 0, len(k.preds))
	for pred := range k.preds {
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
// two materialised KBs with equal texts answer every Match, Lookup and Query
// identically, answer order included.
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
			ren := vt.NumberApart(r, fmt.Sprintf("_m%d", round))
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
	if p := k.preds[goal.Pred()]; p != nil {
		matchIn(p.candidates(goal, b), goal, b, yield)
	}
}

func matchIn(candidates []*lang.Term, goal *lang.Term, b *lang.Bindings, yield func()) {
	for _, f := range candidates {
		if mark := b.Mark(); b.Unify(goal, f) {
			yield()
			b.Undo(mark)
		}
	}
}

// Lookup is one goal's access path into a KB, resolved once for a goal
// known in advance (a compiled rule's condition): its predicate's facts and,
// when its first argument is ground as written, the candidates themselves.
// Matching through it answers exactly as KB.Match does, without hashing the
// predicate or, for such a first argument, building a key. The KB must not
// change after the Lookup is made.
type Lookup struct {
	facts *predFacts // nil: no stored fact has the goal's predicate
	fixed bool       // the first argument is ground as written: cands is every candidate
	cands []*lang.Term
	// walk is the KB of a goal that is not callable as written — a variable
	// condition — which is matched as whatever it is bound to.
	walk *KB
}

// Lookup resolves the access path of goal, a term whose variables are
// numbered into the slot space it will be matched in.
func (k *KB) Lookup(goal *lang.Term) *Lookup {
	if !goal.IsCallable() {
		return &Lookup{walk: k}
	}
	l := &Lookup{facts: k.preds[goal.Pred()]}
	if l.facts != nil && l.facts.byFirst != nil && goal.Args[0].IsGround() {
		l.fixed, l.cands = true, l.facts.candidates(goal, nil)
	}
	return l
}

// Unknown reports whether no stored fact has the goal's predicate as
// written.
func (l *Lookup) Unknown() bool { return l.facts == nil }

// Match is KB.Match for the goal the Lookup was made for.
func (l *Lookup) Match(goal *lang.Term, b *lang.Bindings, yield func()) {
	switch {
	case l.walk != nil:
		l.walk.Match(goal, b, yield)
	case l.fixed:
		matchIn(l.cands, goal, b, yield)
	case l.facts != nil:
		matchIn(l.facts.candidates(goal, b), goal, b, yield)
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
