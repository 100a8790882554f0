package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
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

// allGolden holds the -fig all tables (Figures 2a, 2b, 2c and refine) that
// EXPERIMENTS.md reports. Regenerate it only when a figure is meant to change:
//
//	go run ./cmd/experiments -fig all -csv -vessels 14 -seed 7 -workers 1 > cmd/experiments/testdata/all.csv.golden
const allGolden = "testdata/all.csv.golden"

// TestRunAllWorkersIdentical: -workers fans out whole jobs (generation
// pipelines, Figure 2c evaluations, refine chains), so every table comes out
// byte-identical at one job at a time and at eight, and the sequential run
// prints the committed figures.
func TestRunAllWorkersIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full recognition run")
	}
	o := options{fig: "all", csv: true, vessels: 14, seed: 7, window: 3600, workers: 1}
	seq := captureStdout(t, o)
	want, err := os.ReadFile(allGolden)
	if err != nil {
		t.Fatal(err)
	}
	if seq != string(want) {
		t.Errorf("-fig all differs from %s:\n%s\nwant:\n%s", allGolden, seq, want)
	}
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
	out, _ := captureRun(t, o)
	return out
}

// captureRun runs the command with os.Stdout and os.Stderr redirected to
// files and returns what it printed to each.
func captureRun(t *testing.T, o options) (stdout, stderr string) {
	t.Helper()
	dir := t.TempDir()
	outF, err := os.Create(filepath.Join(dir, "stdout.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer outF.Close()
	errF, err := os.Create(filepath.Join(dir, "stderr.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer errF.Close()
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = outF, errF
	err = run(o)
	os.Stdout, os.Stderr = oldOut, oldErr
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(outF.Name())
	if err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(errF.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), string(log)
}

// warningsGolden holds the runtime-warning log of the -fig all run that
// allGolden pins: every WARN line with its time= attribute cut, sorted. A
// defective draft shows here, not in the tables. Regenerate it only when a
// warning is meant to change:
//
//	go run ./cmd/experiments -fig all -csv -vessels 14 -seed 7 -workers 1 2>&1 >/dev/null \
//	    | sed 's/^time=[^ ]* //' | sort > cmd/experiments/testdata/warnings.golden
const warningsGolden = "testdata/warnings.golden"

// TestRunAllWarningsGolden: the runtime warnings of the paper job are part
// of its output, as the tables are.
func TestRunAllWarningsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full recognition run")
	}
	_, log := captureRun(t, options{fig: "all", csv: true, vessels: 14, seed: 7, window: 3600, workers: 1})
	want, err := os.ReadFile(warningsGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got := sortedWarnings(log); got != string(want) {
		t.Errorf("the runtime warnings differ from %s:\n%s\nwant:\n%s", warningsGolden, got, want)
	}
}

// sortedWarnings returns the WARN lines of a log, each without its leading
// time= attribute, sorted, one per line.
func sortedWarnings(log string) string {
	var lines []string
	for _, l := range strings.Split(log, "\n") {
		if !strings.Contains(l, " level=WARN ") {
			continue
		}
		if strings.HasPrefix(l, "time=") {
			l = l[strings.IndexByte(l, ' ')+1:]
		}
		lines = append(lines, l+"\n")
	}
	sort.Strings(lines)
	return strings.Join(lines, "")
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
