package lang

import (
	"sort"
	"strconv"
	"strings"
)

// This file implements the tree-representation machinery of the paper's
// Definitions 4.7-4.10: the tree representation of an expression, the
// instances of a variable within an expression, and the list of instances of
// each variable within a rule. Variable-instance lists let the similarity
// metric (internal/similarity) decide whether two variables with possibly
// different names refer to the same concept in their respective rules.

// Step is one edge of a path into the tree representation of an expression:
// descend into the i-th argument (1-based, as in the paper) of a node whose
// label is Functor.
type Step struct {
	Functor string
	Index   int
}

// Path is an instance of a variable in an expression: the sequence of steps
// from the expression's root to the single node labelled with the variable
// (Definition 4.9).
type Path []Step

// String renders the path in the paper's notation, e.g.
// "[(initiatedAt,1), (=,1), (withinArea,1)]".
func (p Path) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, s := range p {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('(')
		b.WriteString(s.Functor)
		b.WriteByte(',')
		b.WriteString(strconv.Itoa(s.Index))
		b.WriteByte(')')
	}
	b.WriteByte(']')
	return b.String()
}

// key returns a canonical string encoding used for set comparison.
func (p Path) key() string { return p.String() }

// Less orders paths lexicographically by their canonical encoding.
func (p Path) Less(q Path) bool { return p.key() < q.key() }

// Equal reports whether two paths are identical.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// nodeLabel returns the label of the root of the tree representation of t
// (Definition 4.7): the functor for callable terms, the variable name for
// variables, a canonical spelling for other constants, and "[]" for lists.
func nodeLabel(t *Term) string {
	switch t.Kind {
	case Var, Atom:
		return t.Functor
	case Int:
		return strconv.FormatInt(t.Int, 10)
	case Float:
		return strconv.FormatFloat(t.float(), 'g', -1, 64)
	case Str:
		return strconv.Quote(t.Functor)
	case Compound:
		return t.Functor
	case List:
		return "[]"
	}
	return "?"
}

// instancesOf appends to dst the instances of every variable in expression
// t, each prefixed with the path accumulated so far.
func instancesOf(t *Term, prefix Path, dst map[string][]Path) {
	if t.Kind == Var {
		p := make(Path, len(prefix))
		copy(p, prefix)
		dst[t.Functor] = append(dst[t.Functor], p)
		return
	}
	label := nodeLabel(t)
	for i, a := range t.Args {
		instancesOf(a, append(prefix, Step{Functor: label, Index: i + 1}), dst)
	}
}

// VarInstances maps each variable name appearing in a set of expressions to
// the list of its instances (Definition 4.9), in a canonical sorted order so
// that two lists may be compared for set equality.
type VarInstances map[string][]Path

// InstancesOfExpr returns the variable instances of a single expression.
func InstancesOfExpr(t *Term) VarInstances {
	vi := VarInstances{}
	instancesOf(t, nil, vi)
	vi.normalize()
	return vi
}

// InstancesOfRule returns the list of instances of each variable in the rule
// (the paper's vi_r): the union of the variable instances over the head and
// every body literal. Negated literals contribute paths rooted at 'not', so
// an occurrence under negation is a distinct instance from a positive one.
func InstancesOfRule(c *Clause) VarInstances {
	vi := VarInstances{}
	instancesOf(c.Head, nil, vi)
	for _, l := range c.Body {
		instancesOf(l.Term(), nil, vi)
	}
	vi.normalize()
	return vi
}

func (vi VarInstances) normalize() {
	for v, ps := range vi {
		sort.Slice(ps, func(i, j int) bool { return ps[i].Less(ps[j]) })
		vi[v] = ps
	}
}

// SameConcept reports whether variable a (under instance lists via) and
// variable b (under vib) have identical instance lists, i.e. refer to the
// same concept in their respective rules (Definition 4.11, second branch).
func SameConcept(via VarInstances, a string, vib VarInstances, b string) bool {
	pa, pb := via[a], vib[b]
	if len(pa) != len(pb) {
		return false
	}
	for i := range pa {
		if !pa[i].Equal(pb[i]) {
			return false
		}
	}
	return true
}

// String renders the instance lists sorted by variable name, for debugging
// and golden tests.
func (vi VarInstances) String() string {
	names := make([]string, 0, len(vi))
	for v := range vi {
		names = append(names, v)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, v := range names {
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(v)
		b.WriteString(": ")
		for j, p := range vi[v] {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(p.String())
		}
	}
	return b.String()
}
