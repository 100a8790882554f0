package llm

import (
	"strings"
	"sync"
	"testing"

	"rtecgen/internal/eval"
	"rtecgen/internal/maritime"
	"rtecgen/internal/prompt"
)

// renderKnowledge renders every activity's clauses, for a byte comparison.
func renderKnowledge(k *Knowledge) string {
	var b strings.Builder
	for _, a := range k.Activities {
		b.WriteString("% " + a.Key + "\n")
		for _, c := range a.Clauses {
			b.WriteString(c.String() + "\n")
		}
	}
	return b.String()
}

// TestAllModelsShareKnowledge: the six models of AllModels read one
// Knowledge, so no model may write to it. After every model has generated
// under every scheme (concurrently, as the figures job runs them) and been
// critiqued through the refine loop, the shared clauses must render as a
// fresh MaritimeKnowledge does: an in-place edit of a rule shows here.
func TestAllModelsShareKnowledge(t *testing.T) {
	models := AllModels()
	know := models[0].know
	for _, m := range models[1:] {
		if m.know != know {
			t.Fatalf("%s has its own Knowledge: AllModels builds one per model", m.Name())
		}
	}
	want := renderKnowledge(MaritimeKnowledge())
	if got := renderKnowledge(know); got != want {
		t.Fatal("AllModels' Knowledge differs from a fresh MaritimeKnowledge before any turn")
	}

	pms := make([]prompt.Model, len(models))
	for i, m := range models {
		pms[i] = m
	}
	gens, err := eval.GenerateAllWith(nil, pms, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(models)+len(gens))
	for i, m := range models {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = prompt.RunPipeline(m, prompt.ZeroShot, maritime.PromptDomain(), maritime.CurriculumRequests())
		}()
	}
	for i, gen := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[len(models)+i] = eval.RefineWith(nil, models[i/2], gen, 0, nil)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := renderKnowledge(know); got != want {
		t.Fatalf("generation edited the shared Knowledge in place:\n%s\nwant:\n%s", got, want)
	}
}
