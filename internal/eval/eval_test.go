package eval

import (
	"sync"
	"testing"

	"rtecgen/internal/lang"
	"rtecgen/internal/llm"
	"rtecgen/internal/maritime"
	"rtecgen/internal/prompt"
	"rtecgen/internal/similarity"
)

func allModels() []prompt.Model {
	var out []prompt.Model
	for _, m := range llm.AllModels() {
		out = append(out, m)
	}
	return out
}

var (
	figOnce  sync.Once
	figBest  []Row
	figAll   []Row
	figCor   []CorrectedRow
	figErr   error
	tbOnce   sync.Once
	tbShared *Testbed
	tbErr    error
)

// figures computes Figures 2a and 2b once for all tests in this package.
func figures(t *testing.T) (best, all []Row, cor []CorrectedRow) {
	t.Helper()
	figOnce.Do(func() {
		figBest, figAll, figErr = Figure2aWith(nil, allModels(), 0)
		if figErr == nil {
			figCor, figErr = Figure2b(TopN(figBest, 3))
		}
	})
	if figErr != nil {
		t.Fatal(figErr)
	}
	return figBest, figAll, figCor
}

func testbed(t *testing.T) *Testbed {
	t.Helper()
	tbOnce.Do(func() {
		cfg := DefaultAccuracyConfig()
		cfg.Scenario = maritime.ScenarioConfig{Vessels: 16, Seed: 7, IntervalSec: 60}
		tbShared, tbErr = NewTestbed(cfg)
	})
	if tbErr != nil {
		t.Fatal(tbErr)
	}
	return tbShared
}

// TestFigure2aShape asserts the published shape of Figure 2a: the best
// prompting scheme per model, the identity of the top three event
// descriptions, the trawling pattern, and Gemma-2's zero.
func TestFigure2aShape(t *testing.T) {
	best, all, _ := figures(t)
	if len(all) != 12 || len(best) != 6 {
		t.Fatalf("rows: all=%d best=%d", len(all), len(best))
	}

	byModel := map[string]Row{}
	for _, r := range best {
		byModel[r.Model] = r
	}

	// Best scheme per model, as in the paper's legend:
	// GPT-4□, GPT-4o△, o1□, Llama-3□, Mistral△, Gemma-2△.
	wantScheme := map[string]prompt.Scheme{
		"GPT-4": prompt.FewShot, "GPT-4o": prompt.ChainOfThought,
		"o1": prompt.FewShot, "Llama-3": prompt.FewShot,
		"Mistral": prompt.ChainOfThought, "Gemma-2": prompt.ChainOfThought,
	}
	for model, scheme := range wantScheme {
		r, ok := byModel[model]
		if !ok {
			t.Fatalf("missing model %s", model)
		}
		if r.Scheme != scheme {
			t.Errorf("%s best scheme = %s, want %s", model, r.Scheme, scheme)
		}
	}

	// Top three: GPT-4o△, o1□ and Llama-3□ (the set the paper corrects).
	top := TopN(best, 3)
	topSet := map[string]bool{}
	for _, r := range top {
		topSet[r.Model] = true
	}
	for _, m := range []string{"o1", "GPT-4o", "Llama-3"} {
		if !topSet[m] {
			t.Errorf("model %s missing from top 3: %v", m, topSet)
		}
	}
	if top[0].Model != "o1" {
		t.Errorf("o1 must rank first, got %s", top[0].Model)
	}

	// Trawling: high for the top three (most conditions matched, one
	// redundant condition), much lower for GPT-4 and Mistral (no condition
	// matched), zero for Gemma-2 (wrong fluent kind).
	trTop := byModel["o1"].PerActivity["tr"]
	for _, m := range []string{"GPT-4o", "Llama-3"} {
		if byModel[m].PerActivity["tr"] < 0.6 {
			t.Errorf("%s trawling similarity = %v, want high", m, byModel[m].PerActivity["tr"])
		}
	}
	for _, m := range []string{"GPT-4", "Mistral"} {
		if got := byModel[m].PerActivity["tr"]; got >= trTop-0.15 {
			t.Errorf("%s trawling similarity = %v, want much lower than %v", m, got, trTop)
		}
	}
	if got := byModel["Gemma-2"].PerActivity["tr"]; got != 0 {
		t.Errorf("Gemma-2 trawling similarity = %v, want 0 (wrong fluent kind)", got)
	}

	// Gemma-2 is the weakest on average.
	for _, r := range best {
		if r.Model != "Gemma-2" && r.Average() <= byModel["Gemma-2"].Average() {
			t.Errorf("%s average %v not above Gemma-2's %v", r.Model, r.Average(), byModel["Gemma-2"].Average())
		}
	}
}

// TestFigure2bSmallIncrease asserts that the minimal syntactic corrections
// lead to a small increase of the similarity (the paper: "our changes were
// minor, i.e. led to a small increase in the average similarity score").
func TestFigure2bSmallIncrease(t *testing.T) {
	best, _, cor := figures(t)
	byModel := map[string]Row{}
	for _, r := range best {
		byModel[r.Model] = r
	}
	if len(cor) != 3 {
		t.Fatalf("corrected rows = %d", len(cor))
	}
	for _, c := range cor {
		before := byModel[c.Model].Average()
		after := c.Average()
		if after < before {
			t.Errorf("%s: correction decreased similarity %v -> %v", c.Label(), before, after)
		}
		if after > before+0.1 {
			t.Errorf("%s: correction increase too large: %v -> %v", c.Label(), before, after)
		}
		if len(c.Corrected.Changes) == 0 {
			t.Errorf("%s: no corrections applied", c.Label())
		}
	}
}

// TestFigure2cShape asserts the published accuracy shape: o1■ has the
// highest accuracy; its loitering definition, although not syntactically
// equivalent to the hand-crafted one, yields a perfect f1-score; GPT-4o▲
// and Llama-3■ define loitering as a conjunction of mutually exclusive
// activities, so their rule is never satisfied and f1 is zero.
func TestFigure2cShape(t *testing.T) {
	_, _, cor := figures(t)
	tb := testbed(t)
	rows, err := Figure2c(tb, cor)
	if err != nil {
		t.Fatal(err)
	}
	byModel := map[string]AccuracyRow{}
	for i, r := range rows {
		byModel[cor[i].Model] = r
	}

	o1 := byModel["o1"]
	if got := o1.PerActivity["l"].Score(); got != 1 {
		t.Errorf("o1 loitering f1 = %v, want 1 (semantically equivalent definition)", got)
	}
	for _, m := range []string{"GPT-4o", "Llama-3"} {
		if got := byModel[m].PerActivity["l"].Score(); got != 0 {
			t.Errorf("%s loitering f1 = %v, want 0 (conjunction never satisfied)", m, got)
		}
	}
	for _, m := range []string{"GPT-4o", "Llama-3"} {
		if o1.Average() <= byModel[m].Average() {
			t.Errorf("o1 average f1 %v not above %s's %v", o1.Average(), m, byModel[m].Average())
		}
	}
	// Simple-FVP activities are comparably accurate across the three:
	// high speed near coast and search-and-rescue are recognised by all.
	for _, m := range []string{"o1", "GPT-4o", "Llama-3"} {
		for _, k := range []string{"h", "s"} {
			if got := byModel[m].PerActivity[k].Score(); got < 0.9 {
				t.Errorf("%s %s f1 = %v, want >= 0.9", m, k, got)
			}
		}
	}
}

func TestGoldSelfAccuracyIsPerfect(t *testing.T) {
	tb := testbed(t)
	// Evaluating the gold rules as if they were generated must give f1 = 1
	// everywhere.
	gen := &prompt.GeneratedED{ModelName: "gold"}
	gold := maritime.GoldED()
	for _, act := range maritime.Curriculum {
		gen.Results = append(gen.Results, prompt.ActivityResult{
			Request: prompt.ActivityRequest{Key: act.Key, Name: act.Name},
			Clauses: maritime.RulesForActivity(gold, act),
		})
	}
	row, err := tb.Evaluate(gen)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ActivityKeys {
		if got := row.PerActivity[k].Score(); got != 1 {
			t.Errorf("gold self-f1 for %s = %v, want 1 (tp=%d fp=%d fn=%d)", k, got,
				row.PerActivity[k].TP, row.PerActivity[k].FP, row.PerActivity[k].FN)
		}
	}
}

func TestF1Metrics(t *testing.T) {
	f := F1{TP: 50, FP: 50, FN: 0}
	if f.Precision() != 0.5 || f.Recall() != 1 {
		t.Fatalf("precision/recall = %v/%v", f.Precision(), f.Recall())
	}
	if got := f.Score(); got < 0.66 || got > 0.67 {
		t.Fatalf("f1 = %v", got)
	}
	zero := F1{}
	if zero.Score() != 0 || zero.Precision() != 0 || zero.Recall() != 0 {
		t.Fatal("empty F1 must be all zero")
	}
}

func TestGeneratedPrimaryName(t *testing.T) {
	gen, err := prompt.RunPipeline(llm.MustNew("o1"), prompt.FewShot, maritime.PromptDomain(), maritime.CurriculumRequests())
	if err != nil {
		t.Fatal(err)
	}
	act, _ := maritime.ActivityByKey("tr")
	res, _ := gen.ResultFor("tr")
	if got := generatedPrimaryName(res, act); got != "trawling" {
		t.Fatalf("primary of tr = %q, want trawling", got)
	}
	// Empty result falls back to the gold primary.
	if got := generatedPrimaryName(prompt.ActivityResult{}, act); got != "trawling" {
		t.Fatalf("fallback primary = %q", got)
	}
}

// TestReferencePerGold: scorings against one gold standard — however many
// clones of it they are handed — share one prepared reference, a different
// gold gets its own (so is never answered from another's table), and what
// the caller does to its event description afterwards does not reach it.
func TestReferencePerGold(t *testing.T) {
	gen, err := prompt.RunPipeline(llm.MustNew("Mistral"), prompt.ChainOfThought,
		maritime.PromptDomain(), maritime.CurriculumRequests())
	if err != nil {
		t.Fatal(err)
	}
	fresh := func(gold *lang.EventDescription) float64 {
		t.Helper()
		s, err := similarity.EventDescriptionSimilarity(gold, gen.ED())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	score := func(gold *lang.EventDescription) float64 {
		t.Helper()
		row, err := Score(gold, gen)
		if err != nil {
			t.Fatal(err)
		}
		return row.Overall
	}

	gold, extended := maritime.GoldED(), maritime.ExtensionED()
	if referenceFor(gold) != referenceFor(maritime.GoldED()) {
		t.Error("two clones of the gold standard do not share a reference")
	}
	if referenceFor(gold) == referenceFor(extended) {
		t.Fatal("two different gold standards share a reference")
	}
	wantGold, wantExtended := fresh(gold), fresh(extended)
	if wantGold == wantExtended {
		t.Fatal("the two golds score alike: the test cannot tell their tables apart")
	}
	for round := 0; round < 2; round++ { // cold, then from the tables
		if got := score(gold); got != wantGold {
			t.Errorf("round %d: gold scores %v, fresh computation %v", round, got, wantGold)
		}
		if got := score(extended); got != wantExtended {
			t.Errorf("round %d: extended gold scores %v, fresh computation %v", round, got, wantExtended)
		}
	}

	// Editing the caller's copy makes it a different gold, scored as such.
	rules := gold.Rules()
	rules[0].Body = rules[0].Body[:1]
	if want := fresh(gold); score(gold) != want {
		t.Errorf("edited gold scores %v, fresh computation %v", score(gold), want)
	}
	if got := score(maritime.GoldED()); got != wantGold {
		t.Errorf("after a caller edited its copy, the gold scores %v, want %v", got, wantGold)
	}
}
