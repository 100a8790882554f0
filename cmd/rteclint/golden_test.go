package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"rtecgen/internal/analysis"
)

// TestGoldenAutofix drives -fix over the committed corrupted event
// descriptions and compares the repaired source byte-for-byte against the
// committed golden output. The fixpoint must be reached within the round
// budget with strictly decreasing diagnostic counts, and the repaired
// source must be lint-clean.
func TestGoldenAutofix(t *testing.T) {
	cases := []struct{ domain, path string }{
		{"maritime", "../../examples/lint/corrupted_maritime.prolog"},
		{"fleet", "../../examples/lint/corrupted_fleet.prolog"},
	}
	for _, c := range cases {
		t.Run(c.domain, func(t *testing.T) {
			want, err := os.ReadFile(c.path + ".golden")
			if err != nil {
				t.Fatal(err)
			}
			code, out, errOut := lint(t, []string{"-fix", "-max-severity", "info", "-domain", c.domain, c.path}, "")
			if code != 0 {
				t.Fatalf("exit %d; stderr:\n%s", code, errOut)
			}
			if out != string(want) {
				t.Fatalf("fixed source deviates from %s.golden:\n%s", c.path, out)
			}

			// The machine half of the loop: fixpoint within budget, strictly
			// decreasing diagnostic counts, nothing left at any severity.
			code, out, _ = lint(t, []string{"-fix", "-json", "-domain", c.domain, c.path}, "")
			if code != 0 {
				t.Fatalf("json run: exit %d", code)
			}
			var reports []struct {
				Diagnostics []analysis.Diagnostic `json:"diagnostics"`
				Rounds      []analysis.FixRound   `json:"fixRounds"`
			}
			if err := json.Unmarshal([]byte(out), &reports); err != nil {
				t.Fatal(err)
			}
			r := reports[0]
			if len(r.Diagnostics) != 0 {
				t.Errorf("repaired source is not lint-clean: %v", r.Diagnostics)
			}
			if len(r.Rounds) == 0 || len(r.Rounds) > analysis.DefaultFixBudget {
				t.Fatalf("%d rounds, want 1..%d", len(r.Rounds), analysis.DefaultFixBudget)
			}
			for i, rd := range r.Rounds {
				if rd.After >= rd.Before {
					t.Errorf("round %d: %d -> %d diagnostics (not strictly decreasing)", i+1, rd.Before, rd.After)
				}
			}
			if last := r.Rounds[len(r.Rounds)-1]; last.After != 0 {
				t.Errorf("fixpoint left %d fixable diagnostics", last.After)
			}
		})
	}
}

// TestCorruptedExamplesFailWithoutFix pins the other half of the contract:
// without -fix the corrupted examples, the README's worked example and the
// defective definition carry error-level diagnostics. The last one's
// comparison operand is the one the engine warns about at run time.
func TestCorruptedExamplesFailWithoutFix(t *testing.T) {
	for _, c := range []struct{ domain, path, want string }{
		{"maritime", "../../examples/lint/corrupted_maritime.prolog", ""},
		{"fleet", "../../examples/lint/corrupted_fleet.prolog", ""},
		{"maritime", "../../examples/lint/withinarea_bad.prolog", ""},
		{"maritime", "../../examples/lint/doomed_threshold.prolog",
			"R007: variable 'MovingMin' appears only in a comparison and is never bound"},
	} {
		code, out, _ := lint(t, []string{"-domain", c.domain, c.path}, "")
		if code != 1 {
			t.Errorf("%s: exit %d without -fix, want 1\n%s", c.path, code, out)
		}
		if !strings.Contains(out, c.want) {
			t.Errorf("%s: no %q in\n%s", c.path, c.want, out)
		}
	}
}

// TestGoldenDiffStable checks that -diff on a golden corrupted input names
// the repaired lines.
func TestGoldenDiffStable(t *testing.T) {
	code, out, _ := lint(t, []string{"-diff", "-domain", "maritime", "../../examples/lint/corrupted_maritime.prolog"}, "")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{
		"-    happensAt(entersAreas(Vl, AreaID), T),",
		"+    happensAt(entersArea(Vl, AreaID), T),",
		"-    5 > 3.",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("diff missing %q:\n%s", want, out)
		}
	}
}
