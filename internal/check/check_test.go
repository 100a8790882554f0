package check

import (
	"strings"
	"testing"

	"rtecgen/internal/analysis"
	"rtecgen/internal/lang"
	"rtecgen/internal/llm"
	"rtecgen/internal/maritime"
	"rtecgen/internal/parser"
	"rtecgen/internal/prompt"
)

func genFromSrc(t *testing.T, key, src string, errs ...string) *prompt.GeneratedED {
	t.Helper()
	ed, err := parser.ParseEventDescription(src)
	if err != nil {
		t.Fatal(err)
	}
	return &prompt.GeneratedED{
		ModelName: "test",
		Results: []prompt.ActivityResult{{
			Request: prompt.ActivityRequest{Key: key, Name: key},
			Clauses: ed.Clauses,
			Errors:  errs,
		}},
	}
}

func analyze(t *testing.T, gen *prompt.GeneratedED) []Finding {
	t.Helper()
	return Analyze(gen, maritime.GoldED(), maritime.PromptDomain())
}

func hasCategory(fs []Finding, c Category) bool {
	for _, f := range fs {
		if f.Category == c {
			return true
		}
	}
	return false
}

func TestDetectsNamingDivergence(t *testing.T) {
	gen := genFromSrc(t, "tr", `
initiatedAt(trawlingMovement(Vl)=true, T) :-
    happensAt(change_in_heading(Vl), T),
    holdsAt(withinArea(Vl, trawlingArea)=true, T).
`)
	fs := analyze(t, gen)
	if !hasCategory(fs, Naming) {
		t.Fatalf("naming divergence not found: %v", fs)
	}
	found := false
	for _, f := range fs {
		if f.Category == Naming && strings.Contains(f.Detail, `"trawlingArea" should be "fishing"`) {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected trawlingArea finding: %v", fs)
	}
}

func TestDetectsWrongFluentKind(t *testing.T) {
	gen := genFromSrc(t, "tr", `
initiatedAt(trawling(Vl)=true, T) :-
    happensAt(change_in_heading(Vl), T).
`)
	fs := analyze(t, gen)
	if !hasCategory(fs, FluentKind) {
		t.Fatalf("fluent-kind error not found: %v", fs)
	}
}

func TestDetectsUndefinedCondition(t *testing.T) {
	gen := genFromSrc(t, "tr", `
holdsFor(trawling(Vl)=true, I) :-
    holdsFor(fishingGearDeployed(Vl)=true, I1),
    intersect_all([I1], I).
`)
	fs := analyze(t, gen)
	if !hasCategory(fs, Undefined) {
		t.Fatalf("undefined condition not found: %v", fs)
	}
}

func TestUndefinedNotReportedForDefinedFluents(t *testing.T) {
	gen := genFromSrc(t, "x", `
initiatedAt(helper(Vl)=true, T) :-
    happensAt(stop_start(Vl), T).

holdsFor(top(Vl)=true, I) :-
    holdsFor(helper(Vl)=true, I1),
    union_all([I1], I).
`)
	fs := analyze(t, gen)
	if hasCategory(fs, Undefined) {
		t.Fatalf("false undefined finding: %v", fs)
	}
}

func TestDetectsOperatorMisuse(t *testing.T) {
	// Gold loitering uses union_all + relative_complement_all; swapping the
	// union for an intersect is the paper's category-4 example.
	gen := genFromSrc(t, "l", `
holdsFor(loitering(Vl)=true, I) :-
    holdsFor(lowSpeed(Vl)=true, Il),
    holdsFor(stopped(Vl)=farFromPorts, Is),
    intersect_all([Il, Is], Ils),
    holdsFor(withinArea(Vl, nearPorts)=true, Inp),
    holdsFor(anchoredOrMoored(Vl)=true, Iam),
    relative_complement_all(Ils, [Inp, Iam], I).
`)
	fs := analyze(t, gen)
	if !hasCategory(fs, Operator) {
		t.Fatalf("operator misuse not found: %v", fs)
	}
}

func TestDetectsSyntaxErrors(t *testing.T) {
	gen := genFromSrc(t, "aM", `vessel(v1).`, "unparseable rule chunk: 1:10: ...")
	fs := analyze(t, gen)
	if !hasCategory(fs, Syntax) {
		t.Fatalf("syntax error not found: %v", fs)
	}
}

func TestCleanDefinitionHasNoFindings(t *testing.T) {
	// A definition is clean when its conditions refer only to activities the
	// description itself defines (hierarchical knowledge base).
	gen := genFromSrc(t, "aM", `
initiatedAt(withinArea(Vl, AreaType)=true, T) :-
    happensAt(entersArea(Vl, AreaID), T),
    areaType(AreaID, AreaType).

initiatedAt(stopped(Vl)=farFromPorts, T) :-
    happensAt(stop_start(Vl), T),
    not holdsAt(withinArea(Vl, nearPorts)=true, T).

holdsFor(anchoredOrMoored(Vl)=true, I) :-
    holdsFor(stopped(Vl)=farFromPorts, Isf),
    holdsFor(withinArea(Vl, anchorage)=true, Ia),
    intersect_all([Isf, Ia], Isfa),
    holdsFor(stopped(Vl)=nearPorts, Isn),
    union_all([Isfa, Isn], I).
`)
	fs := analyze(t, gen)
	if len(fs) != 0 {
		t.Fatalf("clean definition produced findings: %v", fs)
	}
}

func TestAnalyzeOnRealModels(t *testing.T) {
	domain := maritime.PromptDomain()
	gold := maritime.GoldED()
	gen, err := prompt.RunPipeline(llm.MustNew("GPT-4o"), prompt.ChainOfThought, domain, maritime.CurriculumRequests())
	if err != nil {
		t.Fatal(err)
	}
	fs := Analyze(gen, gold, domain)
	counts := CountByCategory(fs)
	// GPT-4o's profile guarantees the kind flip (movingSpeed) and the
	// operator confusion (loitering), plus undefined helper fluents.
	if counts[FluentKind] == 0 {
		t.Errorf("missing fluent-kind finding: %v", fs)
	}
	if counts[Operator] == 0 {
		t.Errorf("missing operator finding: %v", fs)
	}
	if counts[Undefined] == 0 {
		t.Errorf("missing undefined finding: %v", fs)
	}
}

func TestCategoryStrings(t *testing.T) {
	for c, want := range map[Category]string{
		Syntax: "syntax error", Naming: "naming divergence",
		FluentKind: "wrong fluent kind", Undefined: "undefined condition",
		Operator: "operator misuse",
	} {
		if c.String() != want {
			t.Errorf("Category(%d).String() = %q", c, c.String())
		}
	}
	f := Finding{Category: Naming, Activity: "tr", Detail: "x"}
	if f.String() != "[naming divergence] tr: x" {
		t.Fatalf("finding string = %q", f.String())
	}
}

func TestCategoryForCode(t *testing.T) {
	want := map[string]Category{
		"R000": Syntax, "R002": Undefined, "R003": FluentKind,
		"R008": Operator, "R010": Naming,
	}
	for code, cat := range want {
		got, ok := CategoryForCode(code)
		if !ok || got != cat {
			t.Errorf("CategoryForCode(%s) = %v, %v; want %v, true", code, got, ok, cat)
		}
	}
	for _, code := range []string{"R001", "R004", "R005", "R006", "R007", "R009"} {
		if _, ok := CategoryForCode(code); ok {
			t.Errorf("CategoryForCode(%s) should have no paper category", code)
		}
	}
}

func TestFindingsFromDiagnostics(t *testing.T) {
	ds := []analysis.Diagnostic{
		{Code: "R002", Severity: analysis.Error, Pos: lang.Position{Line: 3, Col: 7},
			Message: "condition over undefined fluent 'x'"},
		{Code: "R005", Severity: analysis.Info, Message: "'y' is defined but never referenced"},
		{Code: "R010", Severity: analysis.Warning, Message: "'z' is not in the domain vocabulary"},
	}
	fs := FindingsFromDiagnostics(ds)
	if len(fs) != 2 {
		t.Fatalf("got %d findings, want 2 (R005 has no category): %v", len(fs), fs)
	}
	if fs[0].Category != Undefined || !strings.Contains(fs[0].Detail, "at 3:7") {
		t.Fatalf("first finding = %v", fs[0])
	}
	if fs[1].Category != Naming {
		t.Fatalf("second finding = %v", fs[1])
	}
}

// TestNamingFindingsInSourceOrder: the findings of one clause come out in the
// order its names occur, every run — the -errors report is part of the
// byte-identical experiments output.
func TestNamingFindingsInSourceOrder(t *testing.T) {
	gen := genFromSrc(t, "x", `
initiatedAt(x(Vl)=belowNormal, T) :-
    happensAt(speedSignal(Vl, S, C, H), T),
    shipType(Vl, Type),
    thresholds(minMovingSpeed, Min),
    holdsAt(withinArea(Vl, trawlingArea)=true, T),
    not happensAt(gapStart(Vl), T).
`)
	want := []string{"belowNormal", "speedSignal", "shipType", "minMovingSpeed", "trawlingArea", "gapStart"}
	var got []string
	for _, f := range analyze(t, gen) {
		if f.Category == Naming {
			got = append(got, strings.SplitN(f.Detail, `"`, 3)[1])
		}
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("naming findings in order %v, want %v", got, want)
	}
}
