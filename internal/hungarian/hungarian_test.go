package hungarian

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveKnownMatrix(t *testing.T) {
	cost := [][]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	assign, total, err := Solve(cost)
	if err != nil {
		t.Fatal(err)
	}
	if total != 5 { // 1 + 2 + 2
		t.Fatalf("total = %v, want 5", total)
	}
	want := []int{1, 0, 2}
	for i := range want {
		if assign[i] != want[i] {
			t.Fatalf("assignment = %v, want %v", assign, want)
		}
	}
}

func TestSolvePaperExample44(t *testing.T) {
	// Cost matrix of Example 4.4; the optimal mapping is (1,2),(2,1),(3,3)
	// with total 0.25 (Example 4.6).
	cost := [][]float64{
		{1, 0.25, 0},
		{0, 1, 0},
		{1, 1, 0},
	}
	assign, total, err := Solve(cost)
	if err != nil {
		t.Fatal(err)
	}
	if total != 0.25 {
		t.Fatalf("total = %v, want 0.25", total)
	}
	if assign[0] != 1 || assign[1] != 0 || assign[2] != 2 {
		t.Fatalf("assignment = %v, want [1 0 2]", assign)
	}
}

func TestSolveTrivialSizes(t *testing.T) {
	if assign, total, err := Solve(nil); err != nil || assign != nil || total != 0 {
		t.Fatalf("Solve(nil) = %v, %v, %v", assign, total, err)
	}
	assign, total, err := Solve([][]float64{{7}})
	if err != nil || total != 7 || assign[0] != 0 {
		t.Fatalf("Solve 1x1 = %v, %v, %v", assign, total, err)
	}
}

func TestSolveRejectsBadInput(t *testing.T) {
	if _, _, err := Solve([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("non-square matrix accepted")
	}
	if _, _, err := Solve([][]float64{{math.NaN()}}); err == nil {
		t.Fatal("NaN accepted")
	}
	if _, _, err := Solve([][]float64{{math.Inf(1)}}); err == nil {
		t.Fatal("Inf accepted")
	}
	if _, _, err := SolveNaive([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("naive: non-square matrix accepted")
	}
}

func TestSolveNegativeCosts(t *testing.T) {
	cost := [][]float64{
		{-5, 0},
		{0, -5},
	}
	_, total, err := Solve(cost)
	if err != nil {
		t.Fatal(err)
	}
	if total != -10 {
		t.Fatalf("total = %v, want -10", total)
	}
}

func TestAssignmentIsPermutation(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(12)
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				cost[i][j] = r.Float64()
			}
		}
		assign, _, err := Solve(cost)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, n)
		for _, j := range assign {
			if j < 0 || j >= n || seen[j] {
				t.Fatalf("assignment %v is not a permutation", assign)
			}
			seen[j] = true
		}
	}
}

// TestPropMatchesNaive checks optimality against the exhaustive oracle.
func TestPropMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				// Use quarter-integers, as the similarity metric produces,
				// to avoid FP equality issues.
				cost[i][j] = float64(r.Intn(9)) / 4
			}
		}
		_, fast, err1 := Solve(cost)
		_, slow, err2 := SolveNaive(cost)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(fast-slow) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func randomMatrix(r *rand.Rand, n int) [][]float64 {
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			cost[i][j] = float64(r.Intn(64)) / 8
		}
	}
	return cost
}

// TestSolverReuse: a Solver that has solved a larger matrix gives, on every
// later one, the assignment and total a fresh Solve gives — nothing of the
// previous problem (potentials, matching, a longer assignment) shows through
// — and once it has seen its largest matrix it allocates nothing.
func TestSolverReuse(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	big, small := randomMatrix(r, 12), randomMatrix(r, 3)
	var s Solver
	for step, cost := range [][][]float64{big, small, big, randomMatrix(r, 1), small, big} {
		wantAssign, wantTotal, err := Solve(cost)
		if err != nil {
			t.Fatal(err)
		}
		assign, total, err := s.Solve(cost)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(assign) != fmt.Sprint(wantAssign) || total != wantTotal {
			t.Fatalf("step %d (n=%d): reused solver %v total %v, fresh Solve %v total %v",
				step, len(cost), assign, total, wantAssign, wantTotal)
		}
	}
	if _, _, err := s.Solve([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged matrix accepted")
	}
	_, wantSmall, _ := Solve(small)
	if _, total, err := s.Solve(small); err != nil || total != wantSmall {
		t.Fatalf("after a rejected matrix: total %v, err %v, want %v", total, err, wantSmall)
	}
	allocs := testing.AllocsPerRun(20, func() {
		s.Solve(big)   //nolint:errcheck // solved above
		s.Solve(small) //nolint:errcheck
	})
	if allocs != 0 {
		t.Fatalf("a warmed-up Solver allocates %.0f objects per pair of solves, want 0", allocs)
	}
}

func BenchmarkSolve(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{4, 8, 16, 32, 64, 128} {
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				cost[i][j] = r.Float64()
			}
		}
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := Solve(cost); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSolveNaive(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{4, 6, 8} {
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				cost[i][j] = r.Float64()
			}
		}
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := SolveNaive(cost); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sizeName(n int) string { return fmt.Sprintf("n=%03d", n) }
