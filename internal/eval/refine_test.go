package eval

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"rtecgen/internal/llm"
	"rtecgen/internal/maritime"
	"rtecgen/internal/prompt"
)

// generate runs the prompting pipeline of one model and scheme over the
// maritime curriculum: the generation a refine chain continues.
func generate(t *testing.T, m prompt.Model, scheme prompt.Scheme) *prompt.GeneratedED {
	t.Helper()
	gen, err := prompt.RunPipeline(m, scheme, maritime.PromptDomain(), maritime.CurriculumRequests())
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

// refine generates and then refines one model and scheme.
func refine(t *testing.T, m prompt.Model, scheme prompt.Scheme, tb *Testbed) RefineRow {
	t.Helper()
	row, err := RefineWith(nil, m, generate(t, m, scheme), DefaultRefineBudget, tb)
	if err != nil {
		t.Fatal(err)
	}
	return row
}

// TestRefineMonotoneAcrossProfiles checks the headline property of the
// critique–refine loop: for every simulated error profile and both
// prompting schemes, the similarity scores never decrease from round to
// round, the surviving-diagnostic count never increases, and the loop stays
// within its round budget.
func TestRefineMonotoneAcrossProfiles(t *testing.T) {
	for _, m := range llm.AllModels() {
		for _, scheme := range []prompt.Scheme{prompt.FewShot, prompt.ChainOfThought} {
			row := refine(t, m, scheme, nil)
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
		row := refine(t, llm.MustNew(name), prompt.FewShot, nil)
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

// TestRefineDeterministic refines one generation twice, concurrently: the
// rows must be deep-equal, and the generation — its results, their clauses,
// its transcript — must come out of both chains as it went in, since every
// chain continues a copy of its conversation.
func TestRefineDeterministic(t *testing.T) {
	m := llm.MustNew("GPT-4")
	gen := generate(t, m, prompt.ChainOfThought)
	snapshot := func() (string, []prompt.ActivityResult, []prompt.Message) {
		results := make([]prompt.ActivityResult, len(gen.Results))
		for i, r := range gen.Results {
			results[i] = r
			results[i].Clauses = nil
			for _, c := range r.Clauses {
				results[i].Clauses = append(results[i].Clauses, c.Clone())
			}
		}
		return gen.ED().String(), results, append([]prompt.Message(nil), gen.Transcript...)
	}
	text, results, transcript := snapshot()

	// At once, so that a session sharing the transcript's backing array is a
	// race, not only a wrong answer.
	rows, errs := make([]RefineRow, 2), make([]error, 2)
	forEachOrdered(2, 2, func(i int) {
		rows[i], errs[i] = RefineWith(nil, m, gen, DefaultRefineBudget, nil)
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	a, b := rows[0], rows[1]
	if len(a.Rounds) < 2 {
		t.Fatalf("GPT-4△ refined in %d round(s): the chain never critiqued, so it cannot show aliasing", len(a.Rounds))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("refining one generation twice diverged:\n%+v\n%+v", a.Rounds, b.Rounds)
	}
	gotText, gotResults, gotTranscript := snapshot()
	if gotText != text || !reflect.DeepEqual(gotResults, results) {
		t.Error("refining changed the generation's results")
	}
	if !reflect.DeepEqual(gotTranscript, transcript) || len(gen.Transcript) != len(transcript) {
		t.Error("refining changed the generation's transcript")
	}
}

// TestRefineRefusesWithoutConversation: a generation with no transcript
// (assembled by hand) and one asked to continue under another model have no
// conversation to continue.
func TestRefineRefusesWithoutConversation(t *testing.T) {
	m := llm.MustNew("o1")
	gen := generate(t, m, prompt.FewShot)

	bare := *gen
	bare.Transcript = nil
	if _, err := RefineWith(nil, m, &bare, DefaultRefineBudget, nil); err == nil {
		t.Error("a transcript-less generation was refined")
	}
	if _, err := RefineWith(nil, llm.MustNew("GPT-4"), gen, DefaultRefineBudget, nil); err == nil {
		t.Error("o1's conversation was continued by GPT-4")
	}
	if _, err := FigureRefine(nil, []prompt.Model{m}, []Row{{Model: "o1", Scheme: prompt.FewShot}}, 1, nil); err == nil {
		t.Error("a row without a generation was refined")
	}
}

// TestRefineWithTestbedF1 runs one noisy profile against the recognition
// testbed and checks that the F1 column is populated and never regresses
// across rounds.
func TestRefineWithTestbedF1(t *testing.T) {
	row := refine(t, llm.MustNew("Mistral"), prompt.ChainOfThought, testbed(t))
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
	var best []Row
	for _, m := range models {
		gen := generate(t, m, prompt.FewShot)
		best = append(best, Row{Model: gen.ModelName, Scheme: gen.Scheme, Gen: gen})
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

// refinePin is one refine chain as FigureRefine reported it when every chain
// re-taught its model and regenerated its draft: the rounds, and the FNV-64a
// hash of the final event description's text.
type refinePin struct {
	label  string
	final  uint64
	rounds []RefineRound
}

// TestFigureRefinePinned: continuing Figure 2a's conversation must reproduce,
// round for round, the rows of the loop that regenerated its drafts in a
// conversation of its own (the seed-7 testbed, the six best rows).
func TestFigureRefinePinned(t *testing.T) {
	want := []refinePin{
		{"GPT-4□", 0x93b5d97002b8c7b3, []RefineRound{
			{Round: 1, FixRounds: 1, Fixed: 18, Remaining: 15, Overall: 0.6420295769935194, Average: 0.7833657074762845, F1: 0, Critiqued: []string{"withinArea", "gap", "movingSpeed", "underWay", "h", "tr", "tu", "p", "s", "d"}},
			{Round: 2, FixRounds: 1, Fixed: 8, Remaining: 9, Overall: 0.7757755265567765, Average: 0.8840436762311763, F1: 0.437011943040882, Critiqued: []string{"stopped", "tr", "l"}},
			{Round: 3, FixRounds: 1, Fixed: 6, Remaining: 1, Overall: 0.9404647435897436, Average: 0.9667646011396012, F1: 0.7035820128028316},
		}},
		{"GPT-4o△", 0x61591fd570dd2ff7, []RefineRound{
			{Round: 1, FixRounds: 1, Fixed: 12, Remaining: 3, Overall: 0.84704346001221, Average: 0.8783187067562068, F1: 0.5, Critiqued: []string{"movingSpeed"}},
			{Round: 2, FixRounds: 1, Fixed: 12, Remaining: 3, Overall: 0.84704346001221, Average: 0.8783187067562068, F1: 0.5, Critiqued: []string{"movingSpeed"}},
			{Round: 3, FixRounds: 1, Fixed: 12, Remaining: 0, Overall: 0.9855049984737485, Average: 0.893703322140822, F1: 0.75},
		}},
		{"o1□", 0xa590df6e42d24654, []RefineRound{
			{Round: 1, FixRounds: 1, Fixed: 7, Remaining: 0, Overall: 0.9928205128205129, Average: 0.9473504273504274, F1: 1},
		}},
		{"Llama-3□", 0xd73900faf60a80b8, []RefineRound{
			{Round: 1, FixRounds: 1, Fixed: 8, Remaining: 0, Overall: 0.9692456501831502, Average: 0.8812389346764347, F1: 0.8701923076923077},
		}},
		{"Mistral△", 0x4b12f7943656a32b, []RefineRound{
			{Round: 1, FixRounds: 1, Fixed: 20, Remaining: 16, Overall: 0.6879056967338217, Average: 0.7767646541344457, F1: 0.0006223994078077101, Critiqued: []string{"withinArea", "stopped", "movingSpeed", "h", "tr", "tu", "p", "l", "d"}},
			{Round: 2, FixRounds: 1, Fixed: 10, Remaining: 7, Overall: 0.8018907394688645, Average: 0.8685963255494505, F1: 0.6196290461185907, Critiqued: []string{"changingSpeed", "aM", "tr"}},
			{Round: 3, FixRounds: 1, Fixed: 9, Remaining: 0, Overall: 0.9175500801282052, Average: 0.9609777866809116, F1: 0.875},
		}},
		{"Gemma-2△", 0xdf3e485b1dccb97e, []RefineRound{
			{Round: 1, FixRounds: 1, Fixed: 19, Remaining: 11, Overall: 0.6280013736263736, Average: 0.5470824112230362, F1: 0.014705511282759931, Critiqued: []string{"withinArea", "gap", "stopped", "movingSpeed", "underWay", "aM", "tu", "p", "l", "s"}},
			{Round: 2, FixRounds: 1, Fixed: 9, Remaining: 2, Overall: 0.7704727564102564, Average: 0.7676827368233619, F1: 0.5824055746789814, Critiqued: []string{"lowSpeed", "tr"}},
			{Round: 3, FixRounds: 1, Fixed: 8, Remaining: 1, Overall: 0.810536858974359, Average: 0.7721343037749288, F1: 0.7075679281832289},
		}},
	}
	best, _, _ := figures(t)
	rows, err := FigureRefine(nil, allModels(), best, DefaultRefineBudget, testbed(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want) {
		t.Fatalf("%d refine rows, want %d", len(rows), len(want))
	}
	for i, row := range rows {
		w := want[i]
		h := fnv.New64a()
		fmt.Fprint(h, row.Final.ED().String())
		if row.Label() != w.label || h.Sum64() != w.final {
			t.Errorf("row %d: %s with final ED %#016x, want %s with %#016x", i, row.Label(), h.Sum64(), w.label, w.final)
		}
		if !reflect.DeepEqual(row.Rounds, w.rounds) {
			t.Errorf("%s rounds:\n got %+v\nwant %+v", row.Label(), row.Rounds, w.rounds)
		}
	}
}
