package analysis_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtecgen/internal/llm"
	"rtecgen/internal/maritime"
	"rtecgen/internal/prompt"
)

var update = flag.Bool("update", false, "rewrite the golden analyzer reports")

// TestGoldenModelReports runs the full prompting pipeline for each of the
// six simulated models, lints the generated event description, and
// compares the rendered report byte-for-byte against a golden file. The
// simulated models are deterministic, so these reports pin down both the
// analyzer's output format and the exact defect set each error profile
// produces. Regenerate with: go test ./internal/analysis -run Golden -update
func TestGoldenModelReports(t *testing.T) {
	domain := maritime.PromptDomain()
	curriculum := maritime.CurriculumRequests()
	for _, name := range llm.ModelNames() {
		t.Run(name, func(t *testing.T) {
			gen, err := prompt.RunPipeline(llm.MustNew(name), prompt.ChainOfThought, domain, curriculum)
			if err != nil {
				t.Fatal(err)
			}
			got := gen.Lint(domain).Text()
			path := filepath.Join("testdata", "golden", fileName(name)+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create the golden file)", err)
			}
			if got != string(want) {
				t.Errorf("analyzer report for %s diverged from %s:\n--- got ---\n%s--- want ---\n%s",
					name, path, got, want)
			}
		})
	}
}

// TestGoldenReportsAreStable re-runs one model and checks the two reports
// render identically: the pipeline plus analyzer is deterministic end to end.
func TestGoldenReportsAreStable(t *testing.T) {
	domain := maritime.PromptDomain()
	curriculum := maritime.CurriculumRequests()
	render := func() string {
		gen, err := prompt.RunPipeline(llm.MustNew("Mistral"), prompt.ChainOfThought, domain, curriculum)
		if err != nil {
			t.Fatal(err)
		}
		return gen.Lint(domain).Text()
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("reports differ across runs:\n%s\n---\n%s", a, b)
	}
}

func fileName(model string) string {
	return strings.ToLower(strings.ReplaceAll(model, ".", "_"))
}
