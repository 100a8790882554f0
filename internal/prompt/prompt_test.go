package prompt

import (
	"errors"
	"strings"
	"testing"
)

func testDomain() *Domain {
	return &Domain{
		Name: "test",
		Events: []EventDoc{
			{Pattern: "entersArea(Vessel, Area)", Meaning: "vessel entered area"},
			{Pattern: "gap_start(Vessel)", Meaning: "transmissions stopped"},
		},
		Thresholds: []ThresholdDoc{
			{Name: "hcNearCoastMax", Meaning: "max safe coastal speed"},
		},
		Background: []BackgroundDoc{
			{Pattern: "areaType(Area, AreaType)", Meaning: "area types"},
		},
		Values:  []string{"true"},
		Aliases: map[string][]string{},
	}
}

func TestBuildRMentionsCorePredicates(t *testing.T) {
	r := BuildR()
	for _, frag := range []string{"happensAt(E, T)", "initiatedAt(F=V, T)", "terminatedAt(F=V, T)",
		"holdsAt(F=V, T)", "holdsFor(F=V, I)", "union_all", "intersect_all", "relative_complement_all",
		"negation-by-failure"} {
		if !strings.Contains(r, frag) {
			t.Errorf("prompt R missing %q", frag)
		}
	}
}

func TestBuildFSchemes(t *testing.T) {
	cot := BuildF(ChainOfThought)
	fs := BuildF(FewShot)
	// Both contain the example rules.
	for _, frag := range []string{"initiatedAt(withinArea(Vl, AreaType)=true, T)", "holdsFor(underWay(Vessel)=true, I)"} {
		if !strings.Contains(cot, frag) || !strings.Contains(fs, frag) {
			t.Errorf("prompt F missing example rule %q", frag)
		}
	}
	// Only chain-of-thought contains the step-by-step explanations.
	marker := "The activity 'withinArea' is expressed as a simple"
	if !strings.Contains(cot, marker) {
		t.Error("chain-of-thought prompt missing explanation")
	}
	if strings.Contains(fs, marker) {
		t.Error("few-shot prompt must not contain explanations")
	}
	if len(cot) <= len(fs) {
		t.Error("chain-of-thought prompt should be longer than few-shot")
	}
}

func TestBuildEAndT(t *testing.T) {
	d := testDomain()
	e := BuildE(d)
	if !strings.Contains(e, "Input Event 1: entersArea(Vessel, Area)") {
		t.Errorf("prompt E malformed:\n%s", e)
	}
	if !strings.Contains(e, "Background Predicate 1: areaType(Area, AreaType)") {
		t.Error("prompt E missing background predicates")
	}
	tp := BuildT(d)
	if !strings.Contains(tp, "Threshold 1: thresholds(hcNearCoastMax, HcNearCoastMax)") {
		t.Errorf("prompt T malformed:\n%s", tp)
	}
}

func TestBuildGMarker(t *testing.T) {
	g := BuildG(ActivityRequest{Key: "tr", Name: "trawling", Description: "a fishing vessel trawls."})
	if !strings.Contains(g, ActivityMarker+"trawling: a fishing vessel trawls.") {
		t.Errorf("prompt G missing marker:\n%s", g)
	}
}

// echoModel records prompts and answers with canned rules.
type echoModel struct {
	prompts []string
	reply   string
	failOn  string
}

var errBoom = errors.New("boom")

func (m *echoModel) Name() string { return "echo" }
func (m *echoModel) Chat(history []Message, user string) (string, error) {
	m.prompts = append(m.prompts, user)
	if m.failOn != "" && strings.Contains(user, m.failOn) {
		return "", errBoom
	}
	return m.reply, nil
}

func TestSessionTeachThenGenerate(t *testing.T) {
	m := &echoModel{reply: "ok"}
	s := NewSession(m, FewShot, testDomain())
	if _, err := s.Generate(ActivityRequest{Name: "x"}); err == nil {
		t.Fatal("Generate before Teach must fail")
	}
	if err := s.Teach(); err != nil {
		t.Fatal(err)
	}
	if len(m.prompts) != 4 {
		t.Fatalf("Teach sent %d prompts, want 4 (R, F*, E, T)", len(m.prompts))
	}
	if _, err := s.Generate(ActivityRequest{Name: "withinArea", Description: "d"}); err != nil {
		t.Fatal(err)
	}
	if got := len(s.History()); got != 10 {
		t.Fatalf("history length = %d, want 10", got)
	}
}

func TestSessionPropagatesModelErrors(t *testing.T) {
	m := &echoModel{reply: "ok", failOn: "thresholds"}
	s := NewSession(m, FewShot, testDomain())
	if err := s.Teach(); !errors.Is(err, errBoom) {
		t.Fatalf("Teach() = %v, want the model error in the chain", err)
	}
}

func TestSessionRejectsEmptyDomain(t *testing.T) {
	s := NewSession(&echoModel{reply: "ok"}, FewShot, &Domain{Name: "empty"})
	if err := s.Teach(); err == nil {
		t.Fatal("empty domain accepted")
	}
}

func TestParseResponseMixedProseAndRules(t *testing.T) {
	raw := `Answer: The activity is expressed as a simple fluent.

initiatedAt(f(X)=true, T) :-
    happensAt(e(X), T).

Some more prose without rules.

terminatedAt(f(X)=true, T) :-
    happensAt(g(X), T).`
	clauses, errs := ParseResponse(raw)
	if len(clauses) != 2 {
		t.Fatalf("clauses = %d, want 2 (errs: %v)", len(clauses), errs)
	}
	if len(errs) != 0 {
		t.Fatalf("errs = %v", errs)
	}
}

func TestParseResponseRecordsBrokenRules(t *testing.T) {
	raw := `initiatedAt(f(X)=true, T) :-
    happensAt(e(X, T.

terminatedAt(f(X)=true, T) :-
    happensAt(g(X), T).`
	clauses, errs := ParseResponse(raw)
	if len(clauses) != 1 {
		t.Fatalf("clauses = %d, want 1", len(clauses))
	}
	if len(errs) != 1 {
		t.Fatalf("errs = %v, want 1 unparseable chunk", errs)
	}
}

func TestRunPipelineWithCannedModel(t *testing.T) {
	m := &echoModel{reply: "initiatedAt(f(X)=true, T) :-\n    happensAt(e(X), T)."}
	gen, err := RunPipeline(m, ChainOfThought, testDomain(), []ActivityRequest{
		{Key: "a", Name: "alpha", Description: "first"},
		{Key: "b", Name: "beta", Description: "second"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if gen.Label() != "echo△" {
		t.Fatalf("label = %q", gen.Label())
	}
	if len(gen.Results) != 2 {
		t.Fatalf("results = %d", len(gen.Results))
	}
	if len(gen.ED().Rules()) != 2 {
		t.Fatalf("combined rules = %d", len(gen.ED().Rules()))
	}
	if _, ok := gen.ResultFor("b"); !ok {
		t.Fatal("ResultFor failed")
	}
	if _, ok := gen.ResultFor("zz"); ok {
		t.Fatal("ResultFor found ghost")
	}
	if len(gen.ParseErrors()) != 0 {
		t.Fatalf("parse errors: %v", gen.ParseErrors())
	}

	// The transcript is R, F, E, T and two G turns, each prompt and reply;
	// a resumed session is taught, so its first turn is a critique, and what
	// it says is not written back into the transcript.
	if len(gen.Transcript) != 12 {
		t.Fatalf("transcript of %d messages, want 12", len(gen.Transcript))
	}
	s, err := gen.Resume(nil, nil, m, testDomain())
	if err != nil {
		t.Fatal(err)
	}
	sent := len(m.prompts)
	if _, err := s.Critique(gen.Results[0].Request, nil); err != nil {
		t.Fatal(err)
	}
	if len(m.prompts) != sent+1 || len(s.History()) != 14 || len(gen.Transcript) != 12 {
		t.Fatalf("resumed critique: %d prompts sent, history %d, transcript %d; want 1, 14, 12",
			len(m.prompts)-sent, len(s.History()), len(gen.Transcript))
	}
	if _, err := (&GeneratedED{ModelName: "echo"}).Resume(nil, nil, m, testDomain()); err == nil {
		t.Fatal("a generation without a transcript was resumed")
	}
}

// TestRunPipelineReturnsGenerateError: a model error on a G turn ends the
// pipeline with that error; no later activity is requested.
func TestRunPipelineReturnsGenerateError(t *testing.T) {
	m := &echoModel{reply: "ok", failOn: "unanswerable"}
	gen, err := RunPipeline(m, FewShot, testDomain(), []ActivityRequest{
		{Key: "a", Name: "alpha", Description: "first"},
		{Key: "b", Name: "beta", Description: "unanswerable"},
		{Key: "c", Name: "gamma", Description: "third"},
	})
	if !errors.Is(err, errBoom) || gen != nil {
		t.Fatalf("RunPipeline() = %v, %v; want nil and the model's error in the chain", gen, err)
	}
	if len(m.prompts) != 6 {
		t.Fatalf("%d prompts sent, want 6 (R, F*, E, T, G:a, G:b)", len(m.prompts))
	}
}

func TestSchemeNotation(t *testing.T) {
	if FewShot.String() != "few-shot" || ChainOfThought.String() != "chain-of-thought" {
		t.Fatal("scheme names wrong")
	}
	if FewShot.Suffix() != "□" || ChainOfThought.Suffix() != "△" {
		t.Fatal("scheme suffixes wrong")
	}
}
