package correct

import (
	"strings"
	"testing"

	"rtecgen/internal/fleet"
	"rtecgen/internal/maritime"
	"rtecgen/internal/parser"
	"rtecgen/internal/prompt"
)

// genFromSrc wraps rule text as a one-activity GeneratedED.
func genFromSrc(t *testing.T, key, src string) *prompt.GeneratedED {
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
		}},
	}
}

func TestApplyFixesDocumentedAlias(t *testing.T) {
	// The paper's own example: 'trawlingArea' must become 'fishing'.
	gen := genFromSrc(t, "tr", `
initiatedAt(trawlingMovement(Vl)=true, T) :-
    happensAt(change_in_heading(Vl), T),
    holdsAt(withinArea(Vl, trawlingArea)=true, T).
`)
	cor := Apply(gen, maritime.PromptDomain())
	out := cor.Gen.ED().String()
	if strings.Contains(out, "trawlingArea") {
		t.Fatalf("trawlingArea not corrected:\n%s", out)
	}
	if !strings.Contains(out, "fishing") {
		t.Fatalf("fishing not substituted:\n%s", out)
	}
	if len(cor.Changes) != 1 || cor.Changes[0].From != "trawlingArea" || cor.Changes[0].To != "fishing" {
		t.Fatalf("changes = %v", cor.Changes)
	}
	if !strings.Contains(cor.Summary(), "trawlingArea -> fishing") {
		t.Fatalf("summary = %q", cor.Summary())
	}
}

func TestApplyFixesEditDistanceTypo(t *testing.T) {
	gen := genFromSrc(t, "withinArea", `
initiatedAt(withinArea(Vl, AreaType)=true, T) :-
    happensAt(entersAreas(Vl, AreaID), T),
    areaTyp(AreaID, AreaType).
`)
	cor := Apply(gen, maritime.PromptDomain())
	out := cor.Gen.ED().String()
	if !strings.Contains(out, "entersArea(") || !strings.Contains(out, "areaType(") {
		t.Fatalf("typos not corrected:\n%s\nchanges: %v", out, cor.Changes)
	}
}

func TestApplyLeavesSelfDefinedFluentsAlone(t *testing.T) {
	// A fluent name the description defines itself is valid even if absent
	// from the domain vocabulary.
	gen := genFromSrc(t, "x", `
initiatedAt(myCustomActivity(Vl)=true, T) :-
    happensAt(stop_start(Vl), T).

holdsFor(other(Vl)=true, I) :-
    holdsFor(myCustomActivity(Vl)=true, I1),
    union_all([I1], I).
`)
	cor := Apply(gen, maritime.PromptDomain())
	if len(cor.Changes) != 0 {
		t.Fatalf("unexpected changes: %v", cor.Changes)
	}
	if cor.Summary() != "no changes required" {
		t.Fatalf("summary = %q", cor.Summary())
	}
}

func TestApplyLeavesUndefinedHallucinationsAlone(t *testing.T) {
	// Category-3 errors (undefined activities) are not syntactic and must
	// survive correction, as in the paper.
	gen := genFromSrc(t, "tr", `
holdsFor(trawling(Vl)=true, I) :-
    holdsFor(fishingGearDeployed(Vl)=true, I1),
    intersect_all([I1], I).
`)
	cor := Apply(gen, maritime.PromptDomain())
	if !strings.Contains(cor.Gen.ED().String(), "fishingGearDeployed") {
		t.Fatal("structural error was 'corrected' away")
	}
}

func TestApplyDoesNotMutateInput(t *testing.T) {
	gen := genFromSrc(t, "tr", `
initiatedAt(f(Vl)=true, T) :-
    happensAt(gapStart(Vl), T).
`)
	before := gen.ED().String()
	Apply(gen, maritime.PromptDomain())
	if gen.ED().String() != before {
		t.Fatal("Apply mutated its input")
	}
}

func TestApplyFixesThresholdNames(t *testing.T) {
	gen := genFromSrc(t, "h", `
initiatedAt(highSpeedNearCoast(Vl)=true, T) :-
    happensAt(velocity(Vl, Speed, C, H), T),
    threshold(nearCoastSpeedMax, Max),
    Speed > Max.
`)
	cor := Apply(gen, maritime.PromptDomain())
	out := cor.Gen.ED().String()
	if !strings.Contains(out, "thresholds(hcNearCoastMax, Max)") {
		t.Fatalf("threshold not corrected:\n%s\nchanges: %v", out, cor.Changes)
	}
}

func TestEditDistance(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "abc", 0},
		{"abc", "abd", 1},
		{"abc", "ab", 1},
		{"kitten", "sitting", 3},
		{"", "abc", 3},
	}
	for _, c := range cases {
		if got := editDistance(c.a, c.b); got != c.want {
			t.Errorf("editDistance(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestRoundTripOnRealPipeline(t *testing.T) {
	// The corrected output of every model must still parse and must not
	// contain any documented alias.
	domain := maritime.PromptDomain()
	gen := genFromSrc(t, "l", `
holdsFor(loitering(Vl)=true, I) :-
    holdsFor(lowSpeed(Vl)=true, Il),
    holdsFor(stopped(Vl)=farFromPort, Is),
    union_all([Il, Is], I).
`)
	cor := Apply(gen, domain)
	out := cor.Gen.ED().String()
	if strings.Contains(out, "farFromPort,") || strings.Contains(out, "farFromPort)") {
		t.Fatalf("value alias not corrected:\n%s", out)
	}
	if _, err := parser.ParseEventDescription(out); err != nil {
		t.Fatalf("corrected ED unparseable: %v", err)
	}
}

func TestCombinedAndResplit(t *testing.T) {
	gen := &prompt.GeneratedED{
		ModelName: "test",
		Results: []prompt.ActivityResult{
			{Request: prompt.ActivityRequest{Key: "a", Name: "first"}},
			{Request: prompt.ActivityRequest{Key: "b", Name: "second"}},
		},
	}
	for i, src := range []string{
		"initiatedAt(first(V)=true, T) :-\n    happensAt(gap_start(V), T).\n",
		"initiatedAt(second(V)=true, T) :-\n    happensAt(stop_start(V), T).\n",
	} {
		ed, err := parser.ParseEventDescription(src)
		if err != nil {
			t.Fatal(err)
		}
		gen.Results[i].Clauses = ed.Clauses
	}
	src := Combined(gen)
	if strings.Count(src, activityMarker) != 2 {
		t.Fatalf("want 2 markers:\n%s", src)
	}
	back, err := resplit(gen, src)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range back.Results {
		if len(r.Clauses) != 1 {
			t.Fatalf("activity %d: %d clauses", i, len(r.Clauses))
		}
	}
	if back.Results[0].Clauses[0].Head.String() != gen.Results[0].Clauses[0].Head.String() {
		t.Fatal("clauses attributed to the wrong activity")
	}
}

func TestAutoFixReachesFixpoint(t *testing.T) {
	// A typo'd event name, a duplicated condition and a vacuous comparison:
	// all three carry fixes, so AutoFix must discharge them, while the
	// undefined 'fishingGearDeployed' condition has no fix and must remain,
	// attributed to its activity.
	gen := genFromSrc(t, "tr", `
initiatedAt(trawling(Vl)=true, T) :-
    happensAt(entersAreas(Vl, AreaID), T),
    holdsAt(withinArea(Vl, fishing)=true, T),
    holdsAt(withinArea(Vl, fishing)=true, T),
    holdsAt(fishingGearDeployed(Vl)=true, T),
    5 > 3.
`)
	fx := AutoFix(gen, maritime.PromptDomain())
	if !fx.Fixpoint() {
		t.Fatalf("no fixpoint:\n%s", fx.Report.Text())
	}
	if len(fx.Rounds) == 0 || len(fx.Rounds) > 3 {
		t.Fatalf("got %d rounds", len(fx.Rounds))
	}
	for i, rd := range fx.Rounds {
		if rd.After >= rd.Before {
			t.Fatalf("round %d not strictly decreasing: %+v", i, rd)
		}
	}
	out := fx.Gen.ED().String()
	if strings.Contains(out, "entersAreas") || strings.Contains(out, "5 > 3") {
		t.Fatalf("fixable errors survive:\n%s", out)
	}
	if strings.Count(out, "withinArea(Vl, fishing)") != 1 {
		t.Fatalf("duplicate condition survives:\n%s", out)
	}
	if !strings.Contains(out, "fishingGearDeployed") {
		t.Fatal("structural error was autofixed away")
	}
	found := false
	for _, d := range fx.Remaining["tr"] {
		if d.Symbol == "fishingGearDeployed" {
			found = true
		}
	}
	if !found {
		t.Fatalf("remaining diagnostics not attributed to 'tr': %v", fx.Remaining)
	}
}

func TestRenamerOracle(t *testing.T) {
	rn := Renamer(maritime.PromptDomain())
	if to, reason, ok := rn("trawlingArea"); !ok || to != "fishing" || reason != "documented alias" {
		t.Fatalf("trawlingArea -> %q (%q, %v)", to, reason, ok)
	}
	if to, _, ok := rn("entersAreas"); !ok || to != "entersArea" {
		t.Fatalf("entersAreas -> %q, %v", to, ok)
	}
	if _, _, ok := rn("initiatedAt"); ok {
		t.Fatal("RTEC keywords must never be renamed")
	}
	if _, _, ok := rn("completelyUnrelatedName"); ok {
		t.Fatal("distant names must not map onto the vocabulary")
	}
}

// TestRenamerUsesOnlyItsDomain: the rename oracle knows the vocabulary of the
// domain it was built from and no other — the maritime area and vessel types
// are not targets for a fleet name.
func TestRenamerUsesOnlyItsDomain(t *testing.T) {
	rn := Renamer(fleet.PromptDomain())
	for _, name := range []string{"tugs", "cargos", "fishin", "tankr"} {
		if to, reason, ok := rn(name); ok {
			t.Errorf("fleet: %s -> %q (%s); none of the fleet's names is that close", name, to, reason)
		}
	}
	rn = Renamer(maritime.PromptDomain())
	for name, want := range map[string]string{"trawlingArea": "fishing", "tugs": "tug"} {
		if to, _, ok := rn(name); !ok || to != want {
			t.Errorf("maritime: %s -> %q, %v; want %q", name, to, ok, want)
		}
	}
}
