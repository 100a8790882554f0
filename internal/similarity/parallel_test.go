package similarity

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"rtecgen/internal/lang"
	"rtecgen/internal/parser"
)

// manyRules builds n structurally varied rules.
func manyRules(t *testing.T, n int, prefix string) []*lang.Clause {
	t.Helper()
	var src strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&src,
			"initiatedAt(%s%d(X)=true, T) :- happensAt(start%d(X, a%d), T), holdsAt(base%d(X)=true, T).\n",
			prefix, i, i, i%3, i%5)
	}
	ed, err := parser.ParseEventDescription(src.String())
	if err != nil {
		t.Fatal(err)
	}
	return ed.Rules()
}

// TestSimilarityParallelDeterministic: one Reference scored from 8
// goroutines at once — all of them missing the same rows of a cold table,
// each also scoring a subset of its own — answers every one of them what a
// sequential Distance answers. Under -race (ci.sh runs it so) it is also
// the check that the table is the only state the goroutines share.
func TestSimilarityParallelDeterministic(t *testing.T) {
	const goroutines = 8
	kb1 := manyRules(t, 24, "p")
	cands := [][]*lang.Clause{manyRules(t, 20, "q"), manyRules(t, 30, "p"), kb1[:7]}
	// want[g][i]: goroutine g scores the first 24-g reference rules.
	want := make([][]float64, goroutines)
	for g := range want {
		for _, kb2 := range cands {
			d, err := Distance(kb1[:24-g], kb2)
			if err != nil {
				t.Fatal(err)
			}
			want[g] = append(want[g], d)
		}
	}
	for round := 0; round < 5; round++ {
		ref := NewReference(kb1)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for n := range cands {
					i := (g + n) % len(cands)
					for _, sub := range []int{0, g} {
						got, err := ref.Distance(ref.Rules()[:24-sub], cands[i])
						if err != nil {
							t.Error(err)
							return
						}
						if got != want[sub][i] {
							t.Errorf("round %d goroutine %d: %d rules × candidate set %d: concurrent %v, sequential %v",
								round, g, 24-sub, i, got, want[sub][i])
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
