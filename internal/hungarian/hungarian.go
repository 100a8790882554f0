// Package hungarian implements the Kuhn-Munkres assignment algorithm with
// potentials, solving the minimum-cost perfect matching on an n x n cost
// matrix in O(n^3) worst-case time [Kuhn 1955]. The similarity metric of
// internal/similarity uses it to find the optimal mapping g between two sets
// of expressions (paper Section 4.1).
package hungarian

import (
	"fmt"
	"math"
)

// Solve returns the minimum-cost assignment for the square cost matrix: a
// slice mapping each row index to its assigned column, and the total cost.
// The matrix must be square and its values finite.
func Solve(cost [][]float64) (assignment []int, total float64, err error) {
	var s Solver
	return s.Solve(cost)
}

// Solver is Solve with its scratch kept between calls: a caller solving
// many matrices reuses one Solver and allocates only when a matrix is
// larger than any it has seen. The zero value is ready to use; a Solver is
// not safe for concurrent use.
type Solver struct {
	// Potentials u (rows) and v (columns), and p[j] = the row matched to
	// column j. Arrays are 1-indexed with index 0 as a virtual slot, per the
	// classic formulation.
	u, v []float64
	p    []int
	way  []int
	// Per-row scratch, reset at the top of every row.
	minv []float64
	used []bool

	assignment []int
}

// reset sizes every scratch slice for an n×n matrix and clears what the
// algorithm reads before it writes: the potentials and the matching (way[j]
// is written whenever minv[j] becomes finite, and only read after).
func (s *Solver) reset(n int) {
	if cap(s.u) < n+1 {
		s.u, s.v, s.minv = make([]float64, n+1), make([]float64, n+1), make([]float64, n+1)
		s.p, s.way = make([]int, n+1), make([]int, n+1)
		s.used = make([]bool, n+1)
		s.assignment = make([]int, n)
	}
	s.u, s.v, s.minv = s.u[:n+1], s.v[:n+1], s.minv[:n+1]
	s.p, s.way, s.used = s.p[:n+1], s.way[:n+1], s.used[:n+1]
	s.assignment = s.assignment[:n]
	for j := 0; j <= n; j++ {
		s.u[j], s.v[j], s.p[j] = 0, 0, 0
	}
}

// Solve is the package-level Solve on the solver's scratch. The returned
// assignment is the solver's own and is overwritten by its next Solve.
func (s *Solver) Solve(cost [][]float64) (assignment []int, total float64, err error) {
	n := len(cost)
	if n == 0 {
		return nil, 0, nil
	}
	for i, row := range cost {
		if len(row) != n {
			return nil, 0, fmt.Errorf("hungarian: row %d has %d columns, want %d", i, len(row), n)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, 0, fmt.Errorf("hungarian: cost[%d][%d] is not finite", i, j)
			}
		}
	}
	s.reset(n)
	u, v, p, way, minv, used := s.u, s.v, s.p, s.way, s.minv, s.used

	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		for j := range minv {
			minv[j] = math.Inf(1)
			used[j] = false
		}
		for {
			used[j0] = true
			i0, j1 := p[j0], 0
			delta := math.Inf(1)
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}

	assignment = s.assignment
	for j := 1; j <= n; j++ {
		assignment[p[j]-1] = j - 1
	}
	for i := 0; i < n; i++ {
		total += cost[i][assignment[i]]
	}
	return assignment, total, nil
}

// SolveNaive finds the optimal assignment by exhaustive permutation search.
// It is exponential and only intended as a correctness oracle in tests and
// as the baseline of the O(n^3)-vs-n! benchmark (paper Section 4.1 motivates
// Kuhn-Munkres by the factorial cost of the naive approach).
func SolveNaive(cost [][]float64) (assignment []int, total float64, err error) {
	n := len(cost)
	if n == 0 {
		return nil, 0, nil
	}
	for i, row := range cost {
		if len(row) != n {
			return nil, 0, fmt.Errorf("hungarian: row %d has %d columns, want %d", i, len(row), n)
		}
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := math.Inf(1)
	var bestPerm []int
	var recurse func(k int, acc float64)
	recurse = func(k int, acc float64) {
		if acc >= best {
			return
		}
		if k == n {
			best = acc
			bestPerm = append(bestPerm[:0:0], perm...)
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			recurse(k+1, acc+cost[k][perm[k]])
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	recurse(0, 0)
	return bestPerm, best, nil
}
