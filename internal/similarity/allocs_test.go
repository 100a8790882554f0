package similarity

import (
	"testing"

	"rtecgen/internal/llm"
	"rtecgen/internal/maritime"
	"rtecgen/internal/prompt"
)

// distanceAllocCeiling bounds the heap allocations of one Distance call
// between the gold maritime event description and a generated one
// (simulated Gemma-2, chain-of-thought). It is a count, so it repeats across
// hosts; it sits about 15 % above the figure measured when it was committed
// (42 620; see EXPERIMENTS.md "Job-level fan-out"). Deriving the
// variable-instance lists per rule pair instead of per rule multiplies it
// several-fold; a cost matrix allocated row by row adds half again.
const distanceAllocCeiling = 49000

func TestDistanceAllocCeiling(t *testing.T) {
	gen, err := prompt.RunPipeline(llm.MustNew("Gemma-2"), prompt.ChainOfThought,
		maritime.PromptDomain(), maritime.CurriculumRequests())
	if err != nil {
		t.Fatal(err)
	}
	gold, cand := maritime.GoldED().Rules(), gen.ED().Rules()
	withProcs(t, 1) // the cost matrix fills inline: no goroutine allocations in the count
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Distance(gold, cand); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d × %d rules, %.0f allocs per Distance, ceiling %d", len(gold), len(cand), allocs, distanceAllocCeiling)
	if allocs > distanceAllocCeiling {
		t.Fatalf("Distance allocates %.0f objects, ceiling %d", allocs, distanceAllocCeiling)
	}
}
