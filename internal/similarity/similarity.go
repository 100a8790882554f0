// Package similarity implements the paper's novel similarity metric for
// RTEC event descriptions (Section 4): a hierarchy of distance functions —
// ground expressions (Definition 4.1), sets of expressions via optimal
// assignment (Definitions 4.3 and 4.5), possibly non-ground expressions
// under variable-instance equivalence (Definition 4.11), rules (Definition
// 4.12) and whole event descriptions (Definition 4.14). The similarity
// between two objects with distance d is 1-d, and reflects the human effort
// required to correct an LLM-generated event description against a
// hand-crafted gold standard.
package similarity

import (
	"rtecgen/internal/hungarian"
	"rtecgen/internal/lang"
)

// GroundDistance computes the distance between two ground expressions per
// Definition 4.1: identical constants are at distance 0, compounds with the
// same functor and arity average their argument distances damped by 1/2,
// and everything else is at the maximum distance 1.
func GroundDistance(a, b *lang.Term) float64 {
	if a.IsConst() && b.IsConst() {
		if constEqual(a, b) {
			return 0
		}
		return 1
	}
	if sameShape(a, b) {
		k := len(a.Args)
		if k == 0 {
			return 0
		}
		var sum float64
		for i := range a.Args {
			sum += GroundDistance(a.Args[i], b.Args[i])
		}
		return sum / float64(2*k)
	}
	return 1
}

// constEqual compares two atomic constants: atoms by symbol, numbers
// numerically (so 23 and 23.0 denote the same time-point), strings by text.
func constEqual(a, b *lang.Term) bool {
	if na, ok := a.Number(); ok {
		nb, ok := b.Number()
		return ok && na == nb
	}
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case lang.Atom, lang.Str:
		return a.Functor == b.Functor
	}
	return false
}

// sameShape reports whether a and b are compounds (or lists) with matching
// functor and arity, the precondition of the recursive branch of the
// distance definitions. Lists match lists of the same length.
func sameShape(a, b *lang.Term) bool {
	if a.Kind == lang.Compound && b.Kind == lang.Compound {
		return a.Functor == b.Functor && len(a.Args) == len(b.Args)
	}
	if a.Kind == lang.List && b.Kind == lang.List {
		return len(a.Args) == len(b.Args)
	}
	return false
}

// assignment is the reusable workspace of Definitions 4.3 and 4.5: a square
// cost matrix whose rows share one backing array, and the Kuhn-Munkres
// solver's scratch. A caller scoring many pairs keeps one and allocates only
// when a pair is larger than any it has seen.
type assignment struct {
	cells  []float64
	cost   [][]float64
	solver hungarian.Solver
	key    []byte // Reference.row's lookup key: a candidate rule's text
}

// match realises the optimal mapping of Definitions 4.3 and 4.5 generically:
// given a set of na items and a set of nb items with a pairwise distance
// function, it builds the square M = max(na,nb) cost matrix, padded with
// zero columns for the M-K unmatched items, solves it with Kuhn-Munkres and
// returns M, K and the sum of the matched distances. The larger set indexes
// the rows, whichever argument it is.
func (a *assignment) match(na, nb int, dist func(i, j int) float64) (m, k int, total float64, err error) {
	m, k = na, nb
	if na < nb {
		m, k = nb, na
	}
	if m == 0 {
		return 0, 0, 0, nil
	}
	if len(a.cells) < m*m {
		a.cells = make([]float64, m*m)
	}
	if len(a.cost) < m {
		a.cost = make([][]float64, m)
	}
	cost := a.cost[:m]
	for i := range cost {
		row := a.cells[i*m : (i+1)*m : (i+1)*m]
		for j := 0; j < k; j++ {
			if na < nb {
				row[j] = dist(j, i)
			} else {
				row[j] = dist(i, j)
			}
		}
		for j := k; j < m; j++ {
			row[j] = 0
		}
		cost[i] = row
	}
	_, total, err = a.solver.Solve(cost)
	return m, k, total, err
}

// setDistance is (1/M)((M-K) + sum of matched distances), the distance of
// Definition 4.5 over any pairwise distance.
func (a *assignment) setDistance(na, nb int, dist func(i, j int) float64) (float64, error) {
	m, k, total, err := a.match(na, nb, dist)
	if err != nil || m == 0 {
		return 0, err
	}
	return (float64(m-k) + total) / float64(m), nil
}

// SetDistance computes the distance between two sets of ground expressions
// (Definition 4.5).
func SetDistance(ea, eb []*lang.Term) (float64, error) {
	var a assignment
	return a.setDistance(len(ea), len(eb), func(i, j int) float64 {
		return GroundDistance(ea[i], eb[j])
	})
}

// SetSimilarity is 1 - SetDistance.
func SetSimilarity(ea, eb []*lang.Term) (float64, error) {
	d, err := SetDistance(ea, eb)
	return 1 - d, err
}

// ExprDistance computes the distance between two possibly non-ground
// expressions (Definition 4.11). u1 is interpreted under the variable
// instance lists via of its enclosing rule, and u2 under vib: two variables
// are at distance 0 exactly when their instance lists coincide, i.e. they
// refer to the same concept in their respective rules.
func ExprDistance(u1, u2 *lang.Term, via, vib lang.VarInstances) float64 {
	if u1.Kind == lang.Var && u2.Kind == lang.Var {
		if lang.SameConcept(via, u1.Functor, vib, u2.Functor) {
			return 0
		}
		return 1
	}
	if u1.IsConst() && u2.IsConst() {
		if constEqual(u1, u2) {
			return 0
		}
		return 1
	}
	if sameShape(u1, u2) {
		k := len(u1.Args)
		if k == 0 {
			return 0
		}
		var sum float64
		for i := range u1.Args {
			sum += ExprDistance(u1.Args[i], u2.Args[i], via, vib)
		}
		return sum / float64(2*k)
	}
	return 1
}

// RuleDistance computes the distance between two rules (Definition 4.12):
// the heads are compared to each other directly, the bodies via the optimal
// assignment of their conditions, every unmatched condition is penalised by
// 1, and the total is normalised by M+1 where M is the size of the larger
// body.
func RuleDistance(r1, r2 *lang.Clause) (float64, error) {
	var a assignment
	return ruleDistance(prepareRule(r1), prepareRule(r2), &a)
}

// rule is what Definition 4.12 reads of a rule, derived once however many
// rules it is compared with: its conditions as expressions (a negated
// condition wrapped in not/1) and the instance list of each variable.
type rule struct {
	head *lang.Term
	body []*lang.Term
	vi   lang.VarInstances
}

func prepareRule(c *lang.Clause) rule {
	r := rule{head: c.Head, body: make([]*lang.Term, len(c.Body)), vi: lang.InstancesOfRule(c)}
	for i, l := range c.Body {
		r.body[i] = l.Term()
	}
	return r
}

// ruleDistance is RuleDistance over prepared rules and a reusable workspace.
func ruleDistance(r1, r2 rule, a *assignment) (float64, error) {
	if len(r1.body) < len(r2.body) {
		r1, r2 = r2, r1
	}
	headDist := ExprDistance(r1.head, r2.head, r1.vi, r2.vi)
	m, k, total, err := a.match(len(r1.body), len(r2.body), func(i, j int) float64 {
		return ExprDistance(r1.body[i], r2.body[j], r1.vi, r2.vi)
	})
	if err != nil {
		return 0, err
	}
	return (headDist + float64(m-k) + total) / float64(m+1), nil
}

// RuleSimilarity is 1 - RuleDistance.
func RuleSimilarity(r1, r2 *lang.Clause) (float64, error) {
	d, err := RuleDistance(r1, r2)
	return 1 - d, err
}

// Distance computes the distance between two event descriptions given as
// rule sets (Definition 4.14): the optimal assignment between the rules of
// the larger set KB1 (M rules) and the smaller KB2 (K rules), with every
// unmatched rule penalised by 1, normalised by M. A caller scoring several
// rule sets against one kb1 prepares it once with NewReference.
func Distance(kb1, kb2 []*lang.Clause) (float64, error) {
	return NewReference(kb1).Distance(kb1, kb2)
}

// Similarity is 1 - Distance: the headline metric of the paper, in [0,1],
// where 1 means the generated event description needs no corrections.
func Similarity(kb1, kb2 []*lang.Clause) (float64, error) {
	d, err := Distance(kb1, kb2)
	return 1 - d, err
}

// EventDescriptionDistance compares the temporal rules of two parsed event
// descriptions (facts and declarations are not part of the metric).
func EventDescriptionDistance(ed1, ed2 *lang.EventDescription) (float64, error) {
	return Distance(ed1.Rules(), ed2.Rules())
}

// EventDescriptionSimilarity is 1 - EventDescriptionDistance.
func EventDescriptionSimilarity(ed1, ed2 *lang.EventDescription) (float64, error) {
	d, err := EventDescriptionDistance(ed1, ed2)
	return 1 - d, err
}
