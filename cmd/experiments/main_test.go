package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtecgen/internal/telemetry"
)

func TestRunFigures(t *testing.T) {
	// The full pipeline on a small scenario: 2a and 2b plus the error
	// report and the lint table. 2c is exercised separately with a small
	// fleet.
	o := options{fig: "2a", errorsFlag: true, lintFlag: true, csv: true, vessels: 14, seed: 7, window: 3600}
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	o = options{fig: "2b", vessels: 14, seed: 7, window: 3600}
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunFigure2c(t *testing.T) {
	if testing.Short() {
		t.Skip("full recognition run")
	}
	o := options{fig: "2c", csv: true, vessels: 14, seed: 7, window: 3600}
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

// cleanO1Row is the refine CSV row of the clean profile: one round, seven
// mechanical fixes, nothing left to critique, F1 1.000.
const cleanO1Row = "\no1□,1,7,0,0.993,0.947,1.000,\n"

func TestRunFigureRefine(t *testing.T) {
	if testing.Short() {
		t.Skip("full recognition run")
	}
	o := options{fig: "refine", csv: true, vessels: 14, seed: 7, window: 3600}
	first := captureStdout(t, o)
	if again := captureStdout(t, o); again != first {
		t.Errorf("two same-seed refine runs differ:\n%s\nthen:\n%s", first, again)
	}
	if !strings.Contains(first, cleanO1Row) {
		t.Errorf("o1 no longer converges in one clean round:\n%s", first)
	}
}

// TestRunAllWorkersIdentical: -workers fans out whole jobs (generation
// pipelines, Figure 2c evaluations, refine chains), so every table comes out
// byte-identical at one job at a time and at eight.
func TestRunAllWorkersIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full recognition run")
	}
	o := options{fig: "all", csv: true, vessels: 14, seed: 7, window: 3600, workers: 1}
	seq := captureStdout(t, o)
	o.workers = 8
	if par := captureStdout(t, o); par != seq {
		t.Errorf("-fig all differs between -workers 1 and 8:\n%s\nat 8:\n%s", seq, par)
	}
	if !strings.Contains(seq, cleanO1Row) {
		t.Errorf("the clean o1 row is missing from -fig all:\n%s", seq)
	}
}

// captureStdout runs the command with os.Stdout redirected to a file and
// returns what it printed there.
func captureStdout(t *testing.T, o options) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stdout
	os.Stdout = f
	err = run(o)
	os.Stdout = old
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestRunWithTelemetry drives the metrics/trace path of the experiments
// command: the run must emit a parseable Chrome trace with pipeline spans,
// and -metrics (a registry dump on stderr) must leave stdout to the figures.
// Figure 2b is the smallest figure whose run corrects.
func TestRunWithTelemetry(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	o := options{fig: "2b", csv: true, vessels: 14, seed: 7, window: 3600}
	plain := captureStdout(t, o)
	o.tel = telemetry.CLIConfig{TracePath: tracePath, Metrics: true}
	if got := captureStdout(t, o); got != plain {
		t.Errorf("-metrics changed stdout:\n%s\nwithout it:\n%s", got, plain)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	names := map[string]int{}
	for _, ev := range trace.TraceEvents {
		names[ev.Name]++
	}
	for _, want := range []string{"pipeline.run", "pipeline.prompt", "pipeline.correct", "pipeline.score"} {
		if names[want] == 0 {
			t.Fatalf("trace missing %q spans: %v", want, names)
		}
	}
}

func TestRunZeroShotReport(t *testing.T) {
	if err := runZeroShot(); err != nil {
		t.Fatal(err)
	}
}
