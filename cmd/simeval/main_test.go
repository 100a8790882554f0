package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func write(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const ruleA = `initiatedAt(withinArea(Vl, AreaType)=true, T) :-
    happensAt(entersArea(Vl, AreaID), T),
    areaType(AreaID, AreaType).
`

const ruleB = `initiatedAt(withinArea(Vl, AreaType)=true, T) :-
    happensAt(inArea(Vl, AreaID), T),
    areaType(AreaID, AreaType).
`

func TestRunComparesFiles(t *testing.T) {
	a := write(t, "a.rtec", ruleA)
	b := write(t, "b.rtec", ruleB)
	if err := run(io.Discard, a, b, false); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, a, b, true); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, a, a, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	a := write(t, "a.rtec", ruleA)
	if err := run(io.Discard, a, "/nonexistent", false); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := write(t, "bad.rtec", "((((")
	if err := run(io.Discard, a, bad, false); err == nil {
		t.Fatal("unparseable file accepted")
	}
}

// distances returns every number the report prints after "distance".
func distances(t *testing.T, out string) []float64 {
	t.Helper()
	var ds []float64
	for _, m := range regexp.MustCompile(`distance\s*=?\s*(-?[0-9.]+)`).FindAllStringSubmatch(out, -1) {
		d, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatalf("%q: %v", m[0], err)
		}
		ds = append(ds, d)
	}
	return ds
}

// TestRunRulesReport: -rules names, per candidate rule, the gold rule at
// the least distance, and a description against itself is at distance 0
// rule by rule.
func TestRunRulesReport(t *testing.T) {
	ab := write(t, "ab.rtec", ruleA+strings.Replace(ruleB, "initiatedAt", "terminatedAt", 1))
	var out bytes.Buffer
	if err := run(&out, ab, ab, true); err != nil {
		t.Fatal(err)
	}
	ds := distances(t, out.String())
	if len(ds) != 3 {
		t.Fatalf("want the headline and two per-rule distances, got %v in:\n%s", ds, out.String())
	}
	for _, d := range ds {
		if d != 0 {
			t.Fatalf("self-comparison reports distance %v:\n%s", d, out.String())
		}
	}
	if !strings.Contains(out.String(), "closest gold rule: terminatedAt(withinArea(Vl, AreaType)=true, T) (distance 0.0000)") {
		t.Fatalf("the terminatedAt rule is not matched to itself:\n%s", out.String())
	}
}

// TestRunFactsOnlyGold: a gold file with no temporal rule has nothing to
// match a candidate rule with; the report says so instead of printing an
// unnamed rule at a distance outside [0, 1].
func TestRunFactsOnlyGold(t *testing.T) {
	a := write(t, "a.rtec", ruleA)
	facts := write(t, "facts.rtec", "areaType(a1, fishing).\nvesselType(v1, tug).\n")
	var out bytes.Buffer
	if err := run(&out, a, facts, true); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "closest gold rule") || !strings.Contains(out.String(), "no temporal rule") {
		t.Fatalf("report against a facts-only gold:\n%s", out.String())
	}
	for _, d := range distances(t, out.String()) {
		if d < 0 || d > 1 {
			t.Fatalf("distance %v outside [0, 1]:\n%s", d, out.String())
		}
	}
}
