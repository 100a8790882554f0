package eval

import (
	"reflect"
	"testing"

	"rtecgen/internal/llm"
	"rtecgen/internal/prompt"
)

// TestRefineMonotoneAcrossProfiles checks the headline property of the
// critique–refine loop: for every simulated error profile and both
// prompting schemes, the similarity scores never decrease from round to
// round, the surviving-diagnostic count never increases, and the loop stays
// within its round budget.
func TestRefineMonotoneAcrossProfiles(t *testing.T) {
	for _, m := range llm.AllModels() {
		for _, scheme := range []prompt.Scheme{prompt.FewShot, prompt.ChainOfThought} {
			row, err := RefineWith(nil, m, scheme, DefaultRefineBudget, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(row.Rounds) == 0 || len(row.Rounds) > DefaultRefineBudget {
				t.Fatalf("%s: %d rounds, want 1..%d", row.Label(), len(row.Rounds), DefaultRefineBudget)
			}
			for i := 1; i < len(row.Rounds); i++ {
				prev, cur := row.Rounds[i-1], row.Rounds[i]
				if cur.Overall < prev.Overall || cur.Average < prev.Average {
					t.Errorf("%s round %d: similarity regressed (%.3f/%.3f -> %.3f/%.3f)",
						row.Label(), cur.Round, prev.Overall, prev.Average, cur.Overall, cur.Average)
				}
				if cur.Remaining > prev.Remaining {
					t.Errorf("%s round %d: diagnostics grew %d -> %d",
						row.Label(), cur.Round, prev.Remaining, cur.Remaining)
				}
			}
			last := row.Rounds[len(row.Rounds)-1]
			// The loop only stops early when there is nothing left to critique.
			if len(last.Critiqued) == 0 && len(row.Rounds) < DefaultRefineBudget && last.Remaining > 0 {
				t.Errorf("%s stopped at round %d with %d unattributable diagnostics",
					row.Label(), last.Round, last.Remaining)
			}
			if row.Final == nil {
				t.Fatalf("%s: no final event description", row.Label())
			}
		}
	}
}

// TestRefineImprovesCorruptedProfiles pins the qualitative outcome on the
// noisiest profiles: refinement must lift similarity substantially, not
// just avoid regressing.
func TestRefineImprovesCorruptedProfiles(t *testing.T) {
	for _, name := range []string{"Mistral", "Gemma-2", "GPT-4"} {
		row, err := RefineWith(nil, llm.MustNew(name), prompt.FewShot, DefaultRefineBudget, nil)
		if err != nil {
			t.Fatal(err)
		}
		first, last := row.Rounds[0], row.Rounds[len(row.Rounds)-1]
		if len(row.Rounds) < 2 {
			t.Fatalf("%s: expected multiple refine rounds", row.Label())
		}
		if last.Overall <= first.Overall {
			t.Errorf("%s: overall similarity did not improve (%.3f -> %.3f)",
				row.Label(), first.Overall, last.Overall)
		}
		if last.Remaining >= first.Remaining {
			t.Errorf("%s: diagnostics did not shrink (%d -> %d)",
				row.Label(), first.Remaining, last.Remaining)
		}
	}
}

func TestRefineDeterministic(t *testing.T) {
	a, err := RefineWith(nil, llm.MustNew("GPT-4"), prompt.ChainOfThought, DefaultRefineBudget, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RefineWith(nil, llm.MustNew("GPT-4"), prompt.ChainOfThought, DefaultRefineBudget, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Rounds, b.Rounds) {
		t.Fatalf("refine rounds diverged:\n%+v\n%+v", a.Rounds, b.Rounds)
	}
	if a.Final.ED().String() != b.Final.ED().String() {
		t.Fatal("final event descriptions diverged")
	}
}

// TestRefineWithTestbedF1 runs one noisy profile against the recognition
// testbed and checks that the F1 column is populated and never regresses
// across rounds.
func TestRefineWithTestbedF1(t *testing.T) {
	tb := testbed(t)
	row, err := RefineWith(nil, llm.MustNew("Mistral"), prompt.ChainOfThought, DefaultRefineBudget, tb)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range row.Rounds {
		if r.F1 < 0 || r.F1 > 1 {
			t.Fatalf("round %d: F1 = %v out of range", r.Round, r.F1)
		}
		if i > 0 && r.F1 < row.Rounds[i-1].F1 {
			t.Errorf("round %d: F1 regressed %.3f -> %.3f", r.Round, row.Rounds[i-1].F1, r.F1)
		}
	}
}

func TestFigureRefine(t *testing.T) {
	models := []prompt.Model{llm.MustNew("o1"), llm.MustNew("Llama-3")}
	best := []Row{
		{Model: "o1", Scheme: prompt.FewShot},
		{Model: "Llama-3", Scheme: prompt.FewShot},
	}
	rows, err := FigureRefine(nil, models, best, DefaultRefineBudget, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Model != "o1" || rows[1].Model != "Llama-3" {
		t.Fatalf("unexpected rows: %+v", rows)
	}
	// o1's few-shot output is clean after one autofix pass.
	if len(rows[0].Rounds) != 1 || rows[0].Rounds[0].Remaining != 0 {
		t.Errorf("o1 should converge in one round: %+v", rows[0].Rounds)
	}
	if _, err := FigureRefine(nil, models, []Row{{Model: "GPT-17"}}, 1, nil); err == nil {
		t.Error("unknown model must fail")
	}
}
