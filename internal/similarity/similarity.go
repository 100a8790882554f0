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
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

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
	case lang.Atom:
		return a.Functor == b.Functor
	case lang.Str:
		return a.Text == b.Text
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

// assignmentDistance realises Definitions 4.3 and 4.5 generically: given a
// set of na items and a set of nb items with a pairwise distance function,
// it builds the square max(na,nb) cost matrix padded with zero columns for
// unmatched items, solves the optimal mapping with Kuhn-Munkres, and returns
// (1/M)((M-K) + sum of matched distances) where M >= K.
func assignmentDistance(na, nb int, dist func(i, j int) float64) (float64, error) {
	if na < nb {
		return assignmentDistance(nb, na, func(i, j int) float64 { return dist(j, i) })
	}
	m, k := na, nb
	if m == 0 {
		return 0, nil
	}
	cost := squareMatrix(m)
	fillCost(cost, m, k, dist)
	_, total, err := hungarian.Solve(cost)
	if err != nil {
		return 0, err
	}
	return (float64(m-k) + total) / float64(m), nil
}

// squareMatrix returns a zeroed m×m cost matrix whose rows share one backing
// array.
func squareMatrix(m int) [][]float64 {
	cells := make([]float64, m*m)
	cost := make([][]float64, m)
	for i := range cost {
		cost[i] = cells[i*m : (i+1)*m : (i+1)*m]
	}
	return cost
}

// minParallelCells is the matrix size below which the cost of spawning
// workers exceeds the cell computations; smaller matrices fill inline.
const minParallelCells = 256

// fillCost computes cost[i][j] = dist(i, j) for the m×k populated block,
// distributing rows over up to GOMAXPROCS workers. Every cell is a pure
// function of its indices, so the filled matrix — and with it the optimal
// assignment — is identical at any worker count. Panics raised by dist
// (Distance deliberately panics on impossible rule-distance failures) are
// re-raised on the calling goroutine.
func fillCost(cost [][]float64, m, k int, dist func(i, j int) float64) {
	workers := runtime.GOMAXPROCS(0)
	if workers > m {
		workers = m
	}
	if workers <= 1 || m*k < minParallelCells {
		for i := 0; i < m; i++ {
			for j := 0; j < k; j++ {
				cost[i][j] = dist(i, j)
			}
		}
		return
	}
	var (
		next    int64
		wg      sync.WaitGroup
		panicMu sync.Mutex
		panicV  any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicV == nil {
						panicV = r
					}
					panicMu.Unlock()
				}
			}()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= m {
					return
				}
				for j := 0; j < k; j++ {
					cost[i][j] = dist(i, j)
				}
			}
		}()
	}
	wg.Wait()
	if panicV != nil {
		panic(panicV)
	}
}

// SetDistance computes the distance between two sets of ground expressions
// (Definition 4.5).
func SetDistance(ea, eb []*lang.Term) (float64, error) {
	return assignmentDistance(len(ea), len(eb), func(i, j int) float64 {
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
	return ruleDistance(r1, r2, lang.InstancesOfRule(r1), lang.InstancesOfRule(r2))
}

// ruleDistance is RuleDistance over precomputed variable-instance lists
// (via of r1, vib of r2), so a caller comparing many rule pairs derives each
// rule's lists once.
func ruleDistance(r1, r2 *lang.Clause, via, vib lang.VarInstances) (float64, error) {
	if len(r1.Body) < len(r2.Body) {
		r1, r2 = r2, r1
		via, vib = vib, via
	}
	m, k := len(r1.Body), len(r2.Body)
	headDist := ExprDistance(r1.Head, r2.Head, via, vib)
	if m == 0 {
		return headDist, nil
	}
	b1 := make([]*lang.Term, m)
	for i, l := range r1.Body {
		b1[i] = l.Term()
	}
	b2 := make([]*lang.Term, k)
	for j, l := range r2.Body {
		b2[j] = l.Term()
	}
	cost := squareMatrix(m)
	for i := 0; i < m; i++ {
		for j := 0; j < k; j++ {
			cost[i][j] = ExprDistance(b1[i], b2[j], via, vib)
		}
	}
	_, total, err := hungarian.Solve(cost)
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
// unmatched rule penalised by 1, normalised by M.
func Distance(kb1, kb2 []*lang.Clause) (float64, error) {
	vi1, vi2 := instancesOfRules(kb1), instancesOfRules(kb2)
	return assignmentDistance(len(kb1), len(kb2), func(i, j int) float64 {
		d, err := ruleDistance(kb1[i], kb2[j], vi1[i], vi2[j])
		if err != nil {
			// RuleDistance only fails on a non-finite cost matrix, which
			// cannot arise from ExprDistance values in [0,1].
			panic(fmt.Sprintf("similarity: rule distance failed: %v", err))
		}
		return d
	})
}

func instancesOfRules(rules []*lang.Clause) []lang.VarInstances {
	out := make([]lang.VarInstances, len(rules))
	for i, r := range rules {
		out[i] = lang.InstancesOfRule(r)
	}
	return out
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
