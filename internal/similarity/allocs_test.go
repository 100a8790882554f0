package similarity

import (
	"testing"

	"rtecgen/internal/llm"
	"rtecgen/internal/maritime"
	"rtecgen/internal/prompt"
)

// The allocation ceilings bound the heap allocations of one Distance call
// between the gold maritime event description and a generated one
// (simulated Gemma-2, chain-of-thought). They are counts, so they repeat
// across hosts; each sits about 15 % above the figure measured when it was
// committed (EXPERIMENTS.md "PR 25").
const (
	// distanceAllocCeiling is the cold call: Distance prepares the gold
	// side and scores every rule pair. Almost all of it is deriving each
	// rule's variable-instance lists, once per rule; deriving them per rule
	// pair multiplies it several-fold, and a cost matrix or solver scratch
	// allocated per rule pair — what the assignment workspace exists to
	// avoid — puts back some 34 000.
	distanceAllocCeiling = 10000
	// warmDistanceAllocCeiling is the same call against a Reference that
	// has scored this candidate before: the candidate rules' texts (the
	// table keys) and one ED-level workspace. It is the gate that proves
	// rows are reused: one recomputed row costs more than the margin.
	warmDistanceAllocCeiling = 400
)

func TestDistanceAllocCeiling(t *testing.T) {
	gen, err := prompt.RunPipeline(llm.MustNew("Gemma-2"), prompt.ChainOfThought,
		maritime.PromptDomain(), maritime.CurriculumRequests())
	if err != nil {
		t.Fatal(err)
	}
	gold, cand := maritime.GoldED().Rules(), gen.ED().Rules()
	cold := testing.AllocsPerRun(5, func() {
		if _, err := Distance(gold, cand); err != nil {
			t.Fatal(err)
		}
	})
	ref := NewReference(gold)
	warm := testing.AllocsPerRun(5, func() { // AllocsPerRun's warm-up call fills the table
		if _, err := ref.Distance(ref.Rules(), cand); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d × %d rules: %.0f allocs per cold Distance (ceiling %d), %.0f against a warm Reference (ceiling %d)",
		len(gold), len(cand), cold, distanceAllocCeiling, warm, warmDistanceAllocCeiling)
	if cold > distanceAllocCeiling {
		t.Errorf("a cold Distance allocates %.0f objects, ceiling %d", cold, distanceAllocCeiling)
	}
	if warm > warmDistanceAllocCeiling {
		t.Errorf("Distance against a warm Reference allocates %.0f objects, ceiling %d", warm, warmDistanceAllocCeiling)
	}
}
