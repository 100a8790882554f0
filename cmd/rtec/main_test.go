package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtecgen/internal/telemetry"
)

const testED = `
inputEvent(entersArea(_, _)).
inputEvent(leavesArea(_, _)).
areaType(a1, fishing).

initiatedAt(withinArea(Vl, AreaType)=true, T) :-
    happensAt(entersArea(Vl, AreaID), T),
    areaType(AreaID, AreaType).

terminatedAt(withinArea(Vl, AreaType)=true, T) :-
    happensAt(leavesArea(Vl, AreaID), T),
    areaType(AreaID, AreaType).
`

const testStream = `10,entersArea,v1,a1
50,leavesArea,v1,a1
`

func write(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func opts(ed, st string) options {
	return options{edPath: ed, streamPath: st}
}

func TestRunEndToEnd(t *testing.T) {
	ed := write(t, "ed.rtec", testED)
	st := write(t, "events.csv", testStream)
	o := opts(ed, st)
	o.strict = true
	if err := run(o, os.Stdout, os.Stderr); err != nil {
		t.Fatal(err)
	}
	o.window, o.slide, o.fluent = 20, 10, "withinArea/2"
	if err := run(o, os.Stdout, os.Stderr); err != nil {
		t.Fatal(err)
	}
	o.fluent, o.csvOut = "", true
	if err := run(o, os.Stdout, os.Stderr); err != nil {
		t.Fatal(err)
	}
}

// TestRunWithTelemetryFlags exercises the observability path end to end:
// the run must produce a parseable Chrome trace with engine spans and a
// non-empty metrics dump.
func TestRunWithTelemetryFlags(t *testing.T) {
	dir := t.TempDir()
	ed := write(t, "ed.rtec", testED)
	st := write(t, "events.csv", testStream)
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.txt")

	mf, err := os.Create(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	o := opts(ed, st)
	o.window, o.slide = 20, 10
	o.tel = telemetry.CLIConfig{TracePath: tracePath, Metrics: true}
	if err := run(o, os.Stdout, mf); err != nil {
		t.Fatal(err)
	}
	mf.Close()

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
	if names["rtec.run"] != 1 || names["rtec.window"] == 0 || names["rtec.fluent"] == 0 {
		t.Fatalf("trace missing engine spans: %v", names)
	}

	metrics, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"counter rtec.events.ingested_total 2", "counter rtec.windows.evaluated_total"} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("metrics dump missing %q:\n%s", want, metrics)
		}
	}
}

func TestRunErrors(t *testing.T) {
	ed := write(t, "ed.rtec", testED)
	st := write(t, "events.csv", testStream)
	if err := run(opts("", st), os.Stdout, os.Stderr); err == nil {
		t.Fatal("missing -ed accepted")
	}
	if err := run(opts(ed, "/nonexistent.csv"), os.Stdout, os.Stderr); err == nil {
		t.Fatal("missing stream accepted")
	}
	bad := write(t, "bad.rtec", "initiatedAt(((.")
	if err := run(opts(bad, st), os.Stdout, os.Stderr); err == nil {
		t.Fatal("bad event description accepted")
	}
	badStream := write(t, "bad.csv", "notatime,foo\n")
	if err := run(opts(ed, badStream), os.Stdout, os.Stderr); err == nil {
		t.Fatal("bad stream accepted")
	}
	// Strict mode surfaces unusable rules as errors.
	lax := write(t, "lax.rtec", testED+`
initiatedAt(broken(X)=true, T) :-
    holdsAt(withinArea(X, fishing)=true, T).
`)
	strictO := opts(lax, st)
	strictO.strict = true
	if err := run(strictO, os.Stdout, os.Stderr); err == nil {
		t.Fatal("strict mode accepted an unusable rule")
	}
	if err := run(opts(lax, st), os.Stdout, os.Stderr); err != nil {
		t.Fatalf("lenient mode failed: %v", err)
	}
	// -fluent filters the holdsFor listing only; with -csv it would be
	// silently ignored.
	filterO := opts(ed, st)
	filterO.fluent, filterO.csvOut = "withinArea/2", true
	if err := run(filterO, os.Stdout, os.Stderr); err == nil ||
		!strings.Contains(err.Error(), "-fluent") || !strings.Contains(err.Error(), "-csv") {
		t.Fatalf("-fluent with -csv: err = %v, want a usage error naming both flags", err)
	}
	// The checkpoint's rename would replace the journal, -resume or not.
	sameO := opts(ed, st)
	sameO.journalPath = filepath.Join(t.TempDir(), "x")
	sameO.checkpoint = sameO.journalPath
	if err := run(sameO, os.Stdout, os.Stderr); err == nil || !strings.Contains(err.Error(), "same file") {
		t.Fatalf("-journal and -checkpoint on one file: err = %v, want a refusal", err)
	}
	if _, err := os.Stat(sameO.journalPath); err == nil {
		t.Fatal("refused run still created the journal/checkpoint file")
	}
	// -shard-faults only injects into shards: an unsharded run would ignore
	// the schedule and "pass" the drill. A malformed schedule is refused
	// before the run, not after the stream has been read.
	faultO := opts(ed, st)
	faultO.shardFaults = "panic@w1"
	if err := run(faultO, os.Stdout, os.Stderr); err == nil ||
		!strings.Contains(err.Error(), "-shard-faults") || !strings.Contains(err.Error(), "-shards") {
		t.Fatalf("-shard-faults without -shards: err = %v, want a usage error naming both flags", err)
	}
	faultO.shards, faultO.shardFaults = 2, "bogus"
	if err := run(faultO, os.Stdout, os.Stderr); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("unparseable -shard-faults: err = %v, want the parse error", err)
	}
	// An unwritable trace path must be reported.
	traceO := opts(ed, st)
	traceO.tel.TracePath = filepath.Join(t.TempDir(), "no", "such", "dir", "t.json")
	if err := run(traceO, os.Stdout, os.Stderr); err == nil {
		t.Fatal("unwritable trace path accepted")
	}
}

// captureOut runs the command with stdout redirected to a file and returns
// what it printed.
func captureOut(t *testing.T, o options) (string, error) {
	t.Helper()
	outPath := filepath.Join(t.TempDir(), "stdout")
	f, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	runErr := run(o, f, os.Stderr)
	f.Close()
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	return string(data), runErr
}

func TestLenientStreamQuarantinesBadRows(t *testing.T) {
	ed := write(t, "ed.rtec", testED)
	st := write(t, "events.csv", "10,entersArea,v1,a1\nnotatime,junk\n50,leavesArea,v1,a1\n")

	if _, err := captureOut(t, opts(ed, st)); err == nil {
		t.Fatal("strict CSV reading accepted a bad row")
	}
	o := opts(ed, st)
	o.lenient, o.csvOut = true, true
	got, err := captureOut(t, o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "withinArea(v1, fishing)=true") {
		t.Fatalf("lenient run lost the good rows:\n%s", got)
	}
}

func TestStreamingFlagsMatchBatchOutput(t *testing.T) {
	ed := write(t, "ed.rtec", testED)
	// Arrival order is perturbed but within the delay bound.
	st := write(t, "events.csv", "10,entersArea,v1,a1\n60,entersArea,v2,a1\n50,leavesArea,v1,a1\n")
	sorted := write(t, "sorted.csv", "10,entersArea,v1,a1\n50,leavesArea,v1,a1\n60,entersArea,v2,a1\n")

	base := opts(ed, sorted)
	base.window, base.csvOut = 20, true
	want, err := captureOut(t, base)
	if err != nil {
		t.Fatal(err)
	}

	o := opts(ed, st)
	o.window, o.csvOut, o.maxDelay = 20, true, 15
	got, err := captureOut(t, o)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("streaming output differs from batch:\n%s\nvs\n%s", got, want)
	}
}

func TestCrashAfterAndResume(t *testing.T) {
	ed := write(t, "ed.rtec", testED)
	st := write(t, "events.csv",
		"10,entersArea,v1,a1\n30,entersArea,v2,a1\n50,leavesArea,v1,a1\n70,entersArea,v3,a1\n90,leavesArea,v2,a1\n")
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")

	base := opts(ed, st)
	base.window, base.slide, base.csvOut = 20, 20, true
	want, err := captureOut(t, base)
	if err != nil {
		t.Fatal(err)
	}

	o := base
	o.checkpoint, o.checkpointEvery, o.crashAfter = ckpt, 1, 2
	if _, err := captureOut(t, o); err == nil || !strings.Contains(err.Error(), "simulated crash") {
		t.Fatalf("crash-after err = %v", err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint after crash: %v", err)
	}

	o.crashAfter, o.resume = 0, true
	got, err := captureOut(t, o)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("resumed output differs from uninterrupted run:\n%s\nvs\n%s", got, want)
	}

	// -resume without -checkpoint is rejected.
	bad := base
	bad.resume = true
	if _, err := captureOut(t, bad); err == nil {
		t.Fatal("-resume without -checkpoint accepted")
	}
}
