package analysis_test

import (
	"strings"
	"testing"

	"rtecgen/internal/analysis"
	"rtecgen/internal/fleet"
	"rtecgen/internal/maritime"
)

// runSrc analyzes source text so suggested fixes are attached.
func runSrc(t *testing.T, src string, opts analysis.Options) *analysis.Report {
	t.Helper()
	r := analysis.AnalyzeSource(src, opts)
	for _, d := range r.Diagnostics {
		if d.Code == analysis.SyntaxCode {
			t.Fatalf("parse: %s", d.Message)
		}
	}
	return r
}

// ---------------------------------------------------------------- R011

const contradictorySrc = `inputEvent(stop_start(_)).
inputEvent(stop_end(_)).

initiatedAt(stopped(V)=true, T) :-
    happensAt(stop_start(V), T).

terminatedAt(stopped(Vl)=true, T) :-
    happensAt(stop_start(Vl), T).

terminatedAt(stopped(V)=true, T) :-
    happensAt(stop_end(V), T).
`

func TestContradictoryInitiation(t *testing.T) {
	r := runSrc(t, contradictorySrc, analysis.Options{})
	d := wantCode(t, r, "R011", "also terminate it here")
	if d.Severity != analysis.Error {
		t.Fatalf("severity %s, want error", d.Severity)
	}
	if d.Symbol != "stopped" {
		t.Fatalf("symbol %q, want stopped", d.Symbol)
	}
	if len(d.SuggestedFixes) != 1 {
		t.Fatalf("want a deletion fix, got %d", len(d.SuggestedFixes))
	}
	fixed, n := analysis.ApplyFixes(contradictorySrc, d.SuggestedFixes)
	if n != 1 {
		t.Fatalf("applied %d fixes", n)
	}
	r2 := runSrc(t, fixed, analysis.Options{})
	wantNoCode(t, r2, "R011")
}

func TestContradictoryInitiationDistinctConditions(t *testing.T) {
	r := runSrc(t, `initiatedAt(f(V)=true, T) :-
    happensAt(a(V), T).

terminatedAt(f(V)=true, T) :-
    happensAt(b(V), T).
`, analysis.Options{})
	wantNoCode(t, r, "R011")
}

// ---------------------------------------------------------------- R012

func TestUnreachableFluent(t *testing.T) {
	src := `inputEvent(ping(_)).

holdsFor(top(V)=true, I) :-
    holdsFor(mid(V)=true, I1),
    union_all([I1], I).

holdsFor(mid(V)=true, I) :-
    holdsFor(top(V)=true, I1),
    union_all([I1], I).
`
	r := runSrc(t, src, analysis.Options{Roots: map[string]bool{"top": true}})
	d := wantCode(t, r, "R012", "recognition can never fire")
	if d.Severity != analysis.Error || d.Symbol != "top" {
		t.Fatalf("got %s", d)
	}
	wantCode(t, r, "R012", "fluent 'mid' never bottoms out")
}

func TestUnreachableFluentGroundedChain(t *testing.T) {
	src := `inputEvent(ping(_)).

initiatedAt(base(V)=true, T) :-
    happensAt(ping(V), T).

holdsFor(top(V)=true, I) :-
    holdsFor(base(V)=true, I1),
    union_all([I1], I).
`
	r := runSrc(t, src, analysis.Options{Roots: map[string]bool{"top": true}})
	wantNoCode(t, r, "R012")
}

func TestUnreachableNoInitiation(t *testing.T) {
	src := `inputEvent(ping(_)).

terminatedAt(f(V)=true, T) :-
    happensAt(ping(V), T).
`
	r := runSrc(t, src, analysis.Options{})
	wantCode(t, r, "R012", "no initiatedAt rule")
}

func TestDeadValue(t *testing.T) {
	src := `inputEvent(ping(_)).

initiatedAt(mode(V)=active, T) :-
    happensAt(ping(V), T).

initiatedAt(alarm(V)=true, T) :-
    happensAt(ping(V), T),
    holdsAt(mode(V)=idle, T).
`
	r := runSrc(t, src, analysis.Options{})
	d := wantCode(t, r, "R012", "no rule ever makes 'mode(V)=idle' hold")
	if d.Severity != analysis.Warning {
		t.Fatalf("severity %s, want warning", d.Severity)
	}
}

// ---------------------------------------------------------------- R013

func maritimeOpts() analysis.Options {
	d := maritime.PromptDomain()
	return analysis.Options{Vocabulary: d.KnownNames(), Sorts: d.ArgSorts()}
}

func TestSortClashTwoPositions(t *testing.T) {
	src := `initiatedAt(odd(V)=true, T) :-
    happensAt(entersArea(V, AreaID), T),
    vesselType(AreaID, Type).
`
	r := runSrc(t, src, maritimeOpts())
	d := wantCode(t, r, "R013", "argument sorts clash")
	if d.Symbol != "AreaID" {
		t.Fatalf("symbol %q, want AreaID", d.Symbol)
	}
}

func TestSortClashNumericComparison(t *testing.T) {
	src := `initiatedAt(odd(V)=true, T) :-
    happensAt(velocity(V, Speed, CoG, H), T),
    V > Speed.
`
	r := runSrc(t, src, maritimeOpts())
	d := wantCode(t, r, "R013", "not a quantity")
	if d.Symbol != "V" {
		t.Fatalf("symbol %q, want V", d.Symbol)
	}
}

func TestSortInferenceCleanOnGold(t *testing.T) {
	for _, tc := range []struct {
		name  string
		src   string
		opts  analysis.Options
		roots map[string]bool
	}{
		{name: "maritime", src: maritime.GoldED().String(),
			opts: analysis.Options{Vocabulary: maritime.PromptDomain().KnownNames(), Sorts: maritime.PromptDomain().ArgSorts()}},
		{name: "fleet", src: fleet.GoldED().String(),
			opts: analysis.Options{Vocabulary: fleet.PromptDomain().KnownNames(), Sorts: fleet.PromptDomain().ArgSorts()}},
	} {
		r := analysis.AnalyzeSource(tc.src, tc.opts)
		for _, code := range []string{"R011", "R012", "R013", "R014", "R015", "R016"} {
			if ds := r.ByCode(code); len(ds) > 0 {
				t.Errorf("%s gold ED: unexpected %s: %s", tc.name, code, ds[0])
			}
		}
		if r.HasErrors() {
			t.Errorf("%s gold ED has errors:\n%s", tc.name, r.Filter(analysis.Error).Text())
		}
	}
}

// ---------------------------------------------------------------- R014

func TestRedundantDuplicateLiteral(t *testing.T) {
	src := `initiatedAt(f(V)=true, T) :-
    happensAt(ping(V), T),
    holdsAt(g(V)=true, T),
    holdsAt(g(V)=true, T).
`
	r := runSrc(t, src, analysis.Options{})
	d := wantCode(t, r, "R014", "duplicates the condition at")
	fixed, n := analysis.ApplyFixes(src, d.SuggestedFixes)
	if n != 1 {
		t.Fatalf("applied %d fixes", n)
	}
	if strings.Count(fixed, "holdsAt(g(V)=true, T)") != 1 {
		t.Fatalf("duplicate not removed:\n%s", fixed)
	}
	wantNoCode(t, runSrc(t, fixed, analysis.Options{}), "R014")
}

func TestRedundantSubsumedComparison(t *testing.T) {
	src := `initiatedAt(f(V)=true, T) :-
    happensAt(ping(V, Speed), T),
    Speed > 5,
    Speed > 3.
`
	r := runSrc(t, src, analysis.Options{})
	d := wantCode(t, r, "R014", "is implied by 'Speed > 5'")
	fixed, n := analysis.ApplyFixes(src, d.SuggestedFixes)
	if n != 1 {
		t.Fatalf("applied %d fixes", n)
	}
	if strings.Contains(fixed, "Speed > 3") {
		t.Fatalf("weak bound kept:\n%s", fixed)
	}
	wantNoCode(t, runSrc(t, fixed, analysis.Options{}), "R014")
}

func TestRedundantOppositeDirectionsKept(t *testing.T) {
	src := `initiatedAt(f(V)=true, T) :-
    happensAt(ping(V, Speed), T),
    Speed > 3,
    Speed < 9.
`
	wantNoCode(t, runSrc(t, src, analysis.Options{}), "R014")
}

// ---------------------------------------------------------------- R015

func TestNeverTerminated(t *testing.T) {
	src := `inputEvent(ping(_)).

initiatedAt(f(V)=true, T) :-
    happensAt(ping(V), T).
`
	r := runSrc(t, src, analysis.Options{})
	d := wantCode(t, r, "R015", "never terminated")
	if d.Symbol != "f" || d.Severity != analysis.Warning {
		t.Fatalf("got %s", d)
	}
}

func TestNeverTerminatedOtherValueInitiated(t *testing.T) {
	// Initiating f=off terminates f=on, so neither value holds forever.
	src := `inputEvent(up(_)).
inputEvent(down(_)).

initiatedAt(f(V)=on, T) :-
    happensAt(up(V), T).

initiatedAt(f(V)=off, T) :-
    happensAt(down(V), T).
`
	wantNoCode(t, runSrc(t, src, analysis.Options{}), "R015")
}

// ---------------------------------------------------------------- R016

func TestVacuousAlwaysTrue(t *testing.T) {
	src := `initiatedAt(f(V)=true, T) :-
    happensAt(ping(V), T),
    5 > 3.
`
	r := runSrc(t, src, analysis.Options{})
	d := wantCode(t, r, "R016", "always true")
	fixed, n := analysis.ApplyFixes(src, d.SuggestedFixes)
	if n != 1 {
		t.Fatalf("applied %d fixes", n)
	}
	if strings.Contains(fixed, "5 > 3") {
		t.Fatalf("vacuous comparison kept:\n%s", fixed)
	}
}

func TestVacuousAlwaysFalseViaThreshold(t *testing.T) {
	src := `initiatedAt(f(V)=true, T) :-
    happensAt(ping(V, Speed), T),
    thresholds(movingMin, MovingMin),
    MovingMin > 100.
`
	r := runSrc(t, src, analysis.Options{Constants: map[string]float64{"movingMin": 5}})
	d := wantCode(t, r, "R016", "always false")
	if d.Severity != analysis.Error {
		t.Fatalf("severity %s, want error", d.Severity)
	}
	if len(d.SuggestedFixes) != 0 {
		t.Fatalf("always-false comparisons must not get a deletion fix")
	}
}

func TestVacuousDeclaredThresholdFact(t *testing.T) {
	src := `thresholds(lim, 10).

initiatedAt(f(V)=true, T) :-
    happensAt(ping(V, S), T),
    thresholds(lim, L),
    L >= 10.
`
	r := runSrc(t, src, analysis.Options{})
	wantCode(t, r, "R016", "always true")
}

func TestVacuousSameVariable(t *testing.T) {
	src := `initiatedAt(f(V)=true, T) :-
    happensAt(ping(V, S), T),
    S < S.
`
	r := runSrc(t, src, analysis.Options{})
	wantCode(t, r, "R016", "always false")
}

func TestVacuousUnknownThresholdSilent(t *testing.T) {
	src := `initiatedAt(f(V)=true, T) :-
    happensAt(ping(V, S), T),
    thresholds(lim, L),
    S > L.
`
	wantNoCode(t, runSrc(t, src, analysis.Options{}), "R016")
}

// TestVacuousFoldsWhatTheEngineEvaluates: R016 folds with the engine's own
// arithmetic (kb.EvalArith), abs/1 included, so it cannot be silent on a
// comparison the engine evaluates.
func TestVacuousFoldsWhatTheEngineEvaluates(t *testing.T) {
	cases := []struct {
		name, src, want string
		fixable         bool
	}{
		{"abs over a declared threshold", `thresholds(a, 3).

initiatedAt(f(V)=true, T) :-
    happensAt(ping(V), T),
    thresholds(a, A),
    abs(A - 5) > 100.
`, "always false (2 > 100)", false},
		{"abs over literals", `initiatedAt(f(V)=true, T) :-
    happensAt(ping(V), T),
    abs(3 - 5) > 1.
`, "always true (2 > 1)", true},
	}
	for _, c := range cases {
		d := wantCode(t, runSrc(t, c.src, analysis.Options{}), "R016", c.want)
		if _, n := analysis.ApplyFixes(c.src, d.SuggestedFixes); (n == 1) != c.fixable {
			t.Errorf("%s: applied %d deletion fixes, fixable=%v", c.name, n, c.fixable)
		}
	}
}
