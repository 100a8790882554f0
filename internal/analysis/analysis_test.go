package analysis_test

import (
	"strings"
	"testing"

	"rtecgen/internal/analysis"
	"rtecgen/internal/fleet"
	"rtecgen/internal/lang"
	"rtecgen/internal/maritime"
	"rtecgen/internal/parser"
)

func run(t *testing.T, src string, opts analysis.Options) *analysis.Report {
	t.Helper()
	ed, err := parser.ParseEventDescription(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return analysis.Analyze(ed, opts)
}

// wantCode asserts the report holds a diagnostic with the code whose message
// contains substr, and returns it.
func wantCode(t *testing.T, r *analysis.Report, code, substr string) analysis.Diagnostic {
	t.Helper()
	for _, d := range r.ByCode(code) {
		if strings.Contains(d.Message, substr) {
			return d
		}
	}
	t.Fatalf("no %s diagnostic containing %q; report:\n%s", code, substr, r.Text())
	return analysis.Diagnostic{}
}

func wantNoCode(t *testing.T, r *analysis.Report, code string) {
	t.Helper()
	if ds := r.ByCode(code); len(ds) > 0 {
		t.Fatalf("unexpected %s diagnostics:\n%s", code, r.Text())
	}
}

func wantPos(t *testing.T, d analysis.Diagnostic, line, col int32) {
	t.Helper()
	if d.Pos != (lang.Position{Line: line, Col: col}) {
		t.Fatalf("diagnostic at %s, want %d:%d (%s)", d.Pos, line, col, d)
	}
}

// TestStringConditionIsNoKeyword: a string constant keeps its text where a
// callable term keeps its functor, so a condition written as a string must
// not read as the operator or temporal predicate its text spells. Each
// keyword string is linted against a plain string of the same length (so
// every later position is the same): the diagnostics must be too.
func TestStringConditionIsNoKeyword(t *testing.T) {
	lint := func(lit string) []string {
		r := run(t, `initiatedAt(f(X)=true, T) :- happensAt(e(X), T), `+lit+`.
holdsFor(g(X)=true, I) :- holdsFor(f(X)=true, I1), `+lit+`, union_all([I1], I).`, analysis.Options{})
		var out []string
		for _, d := range r.Diagnostics {
			out = append(out, d.Code+" "+d.Pos.String())
		}
		return out
	}
	for _, kw := range []string{"union_all", "relative_complement_all", "<", "holdsFor", "happensAt"} {
		got, want := lint(`"`+kw+`"`), lint(`"`+strings.Repeat("x", len(kw))+`"`)
		if strings.Join(got, ", ") != strings.Join(want, ", ") {
			t.Errorf("string %q: %v, want %v", kw, got, want)
		}
	}
}

func TestPassCatalogue(t *testing.T) {
	ps := analysis.Passes()
	if len(ps) != 16 {
		t.Fatalf("got %d passes, want 16", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if seen[p.Code] {
			t.Errorf("duplicate pass code %s", p.Code)
		}
		seen[p.Code] = true
		if p.Name == "" || p.Doc == "" {
			t.Errorf("pass %s missing name or doc", p.Code)
		}
	}
	for _, code := range []string{"R001", "R005", "R010", "R011", "R016"} {
		if !seen[code] {
			t.Errorf("missing pass %s", code)
		}
	}
}

// ---------------------------------------------------------------- R001

func TestArityMismatch(t *testing.T) {
	r := run(t, "f(a, b).\ng(X) :- f(X).\n", analysis.Options{})
	d := wantCode(t, r, "R001", "'f' used with arity 1, but with arity 2 at 1:1")
	if d.Severity != analysis.Error {
		t.Fatalf("severity %v, want error", d.Severity)
	}
	wantPos(t, d, 2, 9)
}

func TestArityMismatchNegative(t *testing.T) {
	r := run(t, "f(a, b).\ng(X) :- f(X, b).\n", analysis.Options{})
	wantNoCode(t, r, "R001")
}

// ---------------------------------------------------------------- R002

func TestUndefinedFluentReference(t *testing.T) {
	r := run(t, "initiatedAt(a(X)=true, T) :- happensAt(e(X), T), holdsAt(b(X)=true, T).\n", analysis.Options{})
	d := wantCode(t, r, "R002", "undefined fluent 'b'")
	if d.Severity != analysis.Error {
		t.Fatalf("severity %v, want error", d.Severity)
	}
	wantPos(t, d, 1, 58)
}

func TestUndefinedFluentReferenceNegative(t *testing.T) {
	r := run(t, `
initiatedAt(a(X)=true, T) :- happensAt(e(X), T), holdsAt(b(X)=true, T).
initiatedAt(b(X)=true, T) :- happensAt(e(X), T).
`, analysis.Options{})
	wantNoCode(t, r, "R002")
}

func TestUnknownEventWithDeclarations(t *testing.T) {
	r := run(t, `
inputEvent(e(_)).
initiatedAt(a(X)=true, T) :- happensAt(q(X), T).
`, analysis.Options{})
	wantCode(t, r, "R002", "unknown event 'q'")

	r = run(t, `
inputEvent(e(_)).
initiatedAt(a(X)=true, T) :- happensAt(e(X), T).
`, analysis.Options{})
	wantNoCode(t, r, "R002")
}

func TestUnknownEventWithoutDeclarationsIsSkipped(t *testing.T) {
	// No inputEvent declarations and no vocabulary: events are unchecked.
	r := run(t, "initiatedAt(a(X)=true, T) :- happensAt(q(X), T).\n", analysis.Options{})
	wantNoCode(t, r, "R002")
}

func TestUnknownBackgroundPredicate(t *testing.T) {
	vocab := map[string]bool{"e": true, "areaType": true}
	r := run(t, "initiatedAt(a(X)=true, T) :- happensAt(e(X), T), serviceSpeed(X, S), S > 2.\n",
		analysis.Options{Vocabulary: vocab})
	wantCode(t, r, "R002", "unknown background predicate 'serviceSpeed'")

	r = run(t, "initiatedAt(a(X)=true, T) :- happensAt(e(X), T), areaType(X, S), S > 2.\n",
		analysis.Options{Vocabulary: vocab})
	wantNoCode(t, r, "R002")
}

// ---------------------------------------------------------------- R003

func TestFluentKindConflict(t *testing.T) {
	r := run(t, `
initiatedAt(a(X)=true, T) :- happensAt(e(X), T).
holdsFor(a(X)=true, I) :- holdsFor(b(X)=true, I1), union_all([I1], I).
initiatedAt(b(X)=true, T) :- happensAt(e(X), T).
`, analysis.Options{})
	d := wantCode(t, r, "R003", "fluent 'a' is defined here with holdsFor rules but with initiatedAt/terminatedAt rules at 2:1")
	if d.Severity != analysis.Error {
		t.Fatalf("severity %v, want error", d.Severity)
	}
	wantPos(t, d, 3, 1)
}

func TestFluentKindConflictNegative(t *testing.T) {
	r := run(t, `
initiatedAt(a(X)=true, T) :- happensAt(e(X), T).
terminatedAt(a(X)=true, T) :- happensAt(f(X), T).
holdsFor(b(X)=true, I) :- holdsFor(a(X)=true, I1), union_all([I1], I).
`, analysis.Options{})
	wantNoCode(t, r, "R003")
}

// ---------------------------------------------------------------- R004

func TestNegationCycle(t *testing.T) {
	r := run(t, `
initiatedAt(a(X)=true, T) :- happensAt(e(X), T), not holdsAt(b(X)=true, T).
initiatedAt(b(X)=true, T) :- happensAt(e(X), T), holdsAt(a(X)=true, T).
`, analysis.Options{})
	d := wantCode(t, r, "R004", "negation cycle a -> b -> a")
	if d.Severity != analysis.Error {
		t.Fatalf("severity %v, want error", d.Severity)
	}
}

func TestPositiveCycleIsWarning(t *testing.T) {
	r := run(t, `
initiatedAt(a(X)=true, T) :- happensAt(e(X), T), holdsAt(b(X)=true, T).
initiatedAt(b(X)=true, T) :- happensAt(e(X), T), holdsAt(a(X)=true, T).
`, analysis.Options{})
	d := wantCode(t, r, "R004", "cyclic dependency a -> b -> a")
	if d.Severity != analysis.Warning {
		t.Fatalf("severity %v, want warning", d.Severity)
	}
}

func TestRelativeComplementNegationCycle(t *testing.T) {
	// a subtracts b's intervals while b depends on a: the negative dataflow
	// through relative_complement_all makes the cycle unstratifiable.
	r := run(t, `
initiatedAt(c(X)=true, T) :- happensAt(e(X), T).
initiatedAt(b(X)=true, T) :- happensAt(e(X), T), holdsAt(a(X)=true, T).
holdsFor(a(X)=true, I) :- holdsFor(c(X)=true, I1), holdsFor(b(X)=true, I2), relative_complement_all(I1, [I2], I).
`, analysis.Options{})
	wantCode(t, r, "R004", "negation cycle a -> b -> a")
}

func TestDependencyCycleNegative(t *testing.T) {
	r := run(t, `
initiatedAt(a(X)=true, T) :- happensAt(e(X), T).
initiatedAt(b(X)=true, T) :- happensAt(e(X), T), holdsAt(a(X)=true, T).
holdsFor(c(X)=true, I) :- holdsFor(a(X)=true, I1), holdsFor(b(X)=true, I2), relative_complement_all(I1, [I2], I).
`, analysis.Options{})
	wantNoCode(t, r, "R004")
}

// ---------------------------------------------------------------- R005

func TestUnusedDefinition(t *testing.T) {
	src := `
initiatedAt(helper(X)=true, T) :- happensAt(e(X), T).
initiatedAt(main(X)=true, T) :- happensAt(e(X), T).
`
	r := run(t, src, analysis.Options{})
	// Without roots both definitions are unused, at Info severity.
	for _, name := range []string{"helper", "main"} {
		d := wantCode(t, r, "R005", "'"+name+"' is defined but never referenced")
		if d.Severity != analysis.Info {
			t.Fatalf("severity %v, want info", d.Severity)
		}
	}
	// With roots, the deliverable is exempt and the leftover is a warning.
	r = run(t, src, analysis.Options{Roots: map[string]bool{"main": true}})
	d := wantCode(t, r, "R005", "'helper' is defined but never referenced")
	if d.Severity != analysis.Warning {
		t.Fatalf("severity %v, want warning", d.Severity)
	}
	if len(r.ByCode("R005")) != 1 {
		t.Fatalf("want exactly one R005:\n%s", r.Text())
	}
}

func TestUnusedDefinitionNegative(t *testing.T) {
	r := run(t, `
initiatedAt(helper(X)=true, T) :- happensAt(e(X), T).
initiatedAt(main(X)=true, T) :- happensAt(e(X), T), holdsAt(helper(X)=true, T).
`, analysis.Options{Roots: map[string]bool{"main": true}})
	wantNoCode(t, r, "R005")
}

func TestUnusedDefinitionIgnoresFacts(t *testing.T) {
	r := run(t, "areaType(area1, fishing).\n", analysis.Options{})
	wantNoCode(t, r, "R005")
}

// ---------------------------------------------------------------- R006

func TestDuplicateClause(t *testing.T) {
	r := run(t, `
initiatedAt(a(X)=true, T) :- happensAt(e(X), T).
initiatedAt(a(Y)=true, T2) :- happensAt(e(Y), T2).
`, analysis.Options{})
	d := wantCode(t, r, "R006", "duplicate of the clause at 2:1")
	if d.Severity != analysis.Warning {
		t.Fatalf("severity %v, want warning", d.Severity)
	}
	wantPos(t, d, 3, 1)
}

func TestDuplicateClauseNegative(t *testing.T) {
	r := run(t, `
initiatedAt(a(X)=true, T) :- happensAt(e(X), T).
initiatedAt(a(X)=true, T) :- happensAt(f(X), T).
`, analysis.Options{})
	wantNoCode(t, r, "R006")
}

// ---------------------------------------------------------------- R007

func TestUnsafeHeadVariable(t *testing.T) {
	r := run(t, "initiatedAt(a(X, Y)=true, T) :- happensAt(e(X), T).\n", analysis.Options{})
	d := wantCode(t, r, "R007", "head variable 'Y' is not bound")
	if d.Severity != analysis.Error {
		t.Fatalf("severity %v, want error", d.Severity)
	}
	wantPos(t, d, 1, 1)
}

func TestUnsafeNegatedVariable(t *testing.T) {
	r := run(t, `
initiatedAt(b(X)=true, T) :- happensAt(e(X), T).
initiatedAt(a(X)=true, T) :- happensAt(e(X), T), not holdsAt(b(Z)=true, T).
`, analysis.Options{})
	wantCode(t, r, "R007", "variable 'Z' appears only in a negated condition")
}

func TestUnsafeComparisonVariable(t *testing.T) {
	r := run(t, "initiatedAt(a(X)=true, T) :- happensAt(e(X), T), Speed > 5.\n", analysis.Options{})
	wantCode(t, r, "R007", "variable 'Speed' appears only in a comparison")
}

func TestUnsafeIntervalVariable(t *testing.T) {
	r := run(t, "holdsFor(a(X)=true, I) :- holdsFor(b(X)=true, I1), union_all([I1, I2], I).\n", analysis.Options{})
	wantCode(t, r, "R007", "interval variable 'I2' is not bound by any holdsFor condition")
}

func TestTerminatedAtHeadVariablesAreExempt(t *testing.T) {
	// Standard RTEC idiom: a gap_start rule terminates withinArea for every
	// AreaType, leaving the head variable deliberately unbound.
	r := run(t, `
initiatedAt(withinArea(Vl, AreaType)=true, T) :- happensAt(entersArea(Vl, AreaId), T), areaType(AreaId, AreaType).
terminatedAt(withinArea(Vl, AreaType)=true, T) :- happensAt(gap_start(Vl), T).
`, analysis.Options{})
	wantNoCode(t, r, "R007")
}

func TestUnsafeVariableNegative(t *testing.T) {
	r := run(t, `
initiatedAt(b(X)=true, T) :- happensAt(e(X), T).
initiatedAt(a(X)=true, T) :- happensAt(e(X, Speed), T), Speed > 5, not holdsAt(b(X)=true, T).
`, analysis.Options{})
	wantNoCode(t, r, "R007")
}

// ---------------------------------------------------------------- R008

func TestIntervalOperatorMisuse(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"in time-point rule",
			"initiatedAt(a(X)=true, T) :- happensAt(e(X), T), union_all([T], I).\n",
			"interval operator 'union_all' in a time-point rule"},
		{"wrong arity",
			"holdsFor(a(X)=true, I) :- holdsFor(b(X)=true, I1), union_all([I1], I2, I).\n",
			"'union_all' expects 2 arguments"},
		{"non-list argument",
			"holdsFor(a(X)=true, I) :- holdsFor(b(X)=true, I1), intersect_all(i1, I).\n",
			"first argument of 'intersect_all' must be a list"},
		{"empty list",
			"holdsFor(a(X)=true, I) :- union_all([], I).\n",
			"empty interval list in 'union_all' always yields no intervals"},
		{"list as minuend",
			"holdsFor(a(X)=true, I) :- holdsFor(b(X)=true, I1), holdsFor(c(X)=true, I2), relative_complement_all([I1], [I2], I).\n",
			"first argument of 'relative_complement_all' is a single interval variable, not a list"},
		{"negated operator",
			"holdsFor(a(X)=true, I) :- holdsFor(b(X)=true, I1), not union_all([I1], I).\n",
			"interval operator 'union_all' may not be negated"},
		{"nested operator",
			"holdsFor(a(X)=true, I) :- holdsFor(b(X)=true, I1), union_all([intersect_all([I1], I2)], I).\n",
			"interval operator 'intersect_all' must be a top-level condition"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := run(t, tc.src, analysis.Options{})
			wantCode(t, r, "R008", tc.want)
		})
	}
}

func TestIntervalOperatorNegative(t *testing.T) {
	r := run(t, `
initiatedAt(b(X)=true, T) :- happensAt(e(X), T).
initiatedAt(c(X)=true, T) :- happensAt(e(X), T).
holdsFor(a(X)=true, I) :- holdsFor(b(X)=true, I1), holdsFor(c(X)=true, I2), relative_complement_all(I1, [I2], I).
`, analysis.Options{})
	wantNoCode(t, r, "R008")
}

// ---------------------------------------------------------------- R009

func TestMalformedTemporalHead(t *testing.T) {
	r := run(t, "holdsAt(a(X)=true, T) :- happensAt(e(X), T).\n", analysis.Options{})
	wantCode(t, r, "R009", "holdsAt cannot be defined directly")

	r = run(t, "initiatedAt(a(X), T) :- happensAt(e(X), T).\n", analysis.Options{})
	wantCode(t, r, "R009", "head must be over a fluent=value pair")

	r = run(t, "initiatedAt(a(X)=true) :- happensAt(e(X), T).\n", analysis.Options{})
	wantCode(t, r, "R009", "expects 2 arguments")
}

func TestMalformedTemporalHeadNegative(t *testing.T) {
	r := run(t, "initiatedAt(a(X)=true, T) :- happensAt(e(X), T).\n", analysis.Options{})
	wantNoCode(t, r, "R009")
}

// ---------------------------------------------------------------- R010

func TestUnknownName(t *testing.T) {
	vocab := map[string]bool{"entersArea": true, "areaType": true, "fishing": true}
	r := run(t, "initiatedAt(a(X)=true, T) :- happensAt(entersArea(X, AreaId), T), areaType(AreaId, trawlingArea).\n",
		analysis.Options{Vocabulary: vocab})
	d := wantCode(t, r, "R010", "'trawlingArea' is not in the domain vocabulary")
	if d.Severity != analysis.Warning {
		t.Fatalf("severity %v, want warning", d.Severity)
	}

	r = run(t, "initiatedAt(a(X)=true, T) :- happensAt(entersArea(X, AreaId), T), areaType(AreaId, fishing).\n",
		analysis.Options{Vocabulary: vocab})
	wantNoCode(t, r, "R010")
}

func TestUnknownNameSkippedWithoutVocabulary(t *testing.T) {
	r := run(t, "initiatedAt(a(X)=true, T) :- happensAt(e(X), T), areaType(X, trawlingArea).\n",
		analysis.Options{})
	wantNoCode(t, r, "R010")
}

// ------------------------------------------------------- report behaviour

func TestReportDeterministicAndOrdered(t *testing.T) {
	src := `
initiatedAt(a(X, Y)=true, T) :- happensAt(e(X), T), holdsAt(b(X)=true, T).
initiatedAt(a(X, Y)=true, T2) :- happensAt(e(X), T2), holdsAt(b(X)=true, T2).
holdsFor(a(X)=true, I) :- union_all([], I).
`
	opts := analysis.Options{Vocabulary: map[string]bool{"e": true}}
	ed, err := parser.ParseEventDescription(src)
	if err != nil {
		t.Fatal(err)
	}
	r1 := analysis.Analyze(ed, opts)
	r2 := analysis.Analyze(ed, opts)
	if r1.Text() != r2.Text() {
		t.Fatalf("reports differ between runs:\n%s\n---\n%s", r1.Text(), r2.Text())
	}
	if len(r1.Diagnostics) == 0 {
		t.Fatal("expected diagnostics")
	}
	for i := 1; i < len(r1.Diagnostics); i++ {
		if r1.Diagnostics[i].Pos.Before(r1.Diagnostics[i-1].Pos) {
			t.Fatalf("diagnostics out of position order:\n%s", r1.Text())
		}
	}
	for _, d := range r1.Diagnostics {
		if !d.Pos.IsValid() {
			t.Fatalf("diagnostic without a position: %s", d)
		}
	}
	if !r1.HasErrors() || r1.Max() != analysis.Error {
		t.Fatal("expected errors in the report")
	}
	if got := r1.Filter(analysis.Error); len(got.Diagnostics) >= len(r1.Diagnostics) {
		t.Fatal("Filter(Error) should drop the warnings")
	}
	if _, err := r1.JSON(); err != nil {
		t.Fatalf("JSON: %v", err)
	}
}

// ------------------------------------------------------- gold regressions

// rootsOf strips the "/arity" suffix of fluent indicators like "gap/1".
func rootsOf(fluents ...[]string) map[string]bool {
	roots := map[string]bool{}
	for _, fs := range fluents {
		for _, f := range fs {
			roots[strings.SplitN(f, "/", 2)[0]] = true
		}
	}
	return roots
}

func maritimeOptions() analysis.Options {
	var fs [][]string
	for _, a := range maritime.Curriculum {
		fs = append(fs, a.Fluents)
	}
	return analysis.Options{Vocabulary: maritime.PromptDomain().KnownNames(), Roots: rootsOf(fs...)}
}

func TestMaritimeGoldIsClean(t *testing.T) {
	r := analysis.Analyze(maritime.GoldED(), maritimeOptions())
	if len(r.Diagnostics) != 0 {
		t.Fatalf("maritime gold standard should analyze clean, got:\n%s", r.Text())
	}
}

func TestFleetGoldIsClean(t *testing.T) {
	var fs [][]string
	for _, a := range fleet.Curriculum {
		fs = append(fs, a.Fluents)
	}
	r := analysis.Analyze(fleet.GoldED(), analysis.Options{
		Vocabulary: fleet.PromptDomain().KnownNames(),
		Roots:      rootsOf(fs...),
	})
	if len(r.Diagnostics) != 0 {
		t.Fatalf("fleet gold standard should analyze clean, got:\n%s", r.Text())
	}
}
