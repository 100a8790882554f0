package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtecgen/internal/parser"
	"rtecgen/internal/rtec"
	"rtecgen/internal/stream"
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
	if err := run(o, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	o.window, o.slide, o.fluent = 20, 10, "withinArea/2"
	if err := run(o, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	o.fluent, o.csvOut = "", true
	if err := run(o, io.Discard, io.Discard); err != nil {
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
	var metrics bytes.Buffer
	o := opts(ed, st)
	o.window, o.slide = 20, 10
	o.tel = telemetry.CLIConfig{TracePath: tracePath, Metrics: true}
	if err := run(o, io.Discard, &metrics); err != nil {
		t.Fatal(err)
	}

	names := traceSpans(t, tracePath)
	if names["rtec.run"] != 1 || names["rtec.window"] == 0 || names["rtec.fluent"] == 0 {
		t.Fatalf("trace missing engine spans: %v", names)
	}

	for _, want := range []string{"counter rtec.events.ingested_total 2", "counter rtec.windows.evaluated_total"} {
		if !strings.Contains(metrics.String(), want) {
			t.Fatalf("metrics dump missing %q:\n%s", want, metrics.String())
		}
	}
}

// traceSpans counts the spans of the Chrome trace at path by name.
func traceSpans(t *testing.T, path string) map[string]int {
	t.Helper()
	raw, err := os.ReadFile(path)
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
	return names
}

func TestRunErrors(t *testing.T) {
	ed := write(t, "ed.rtec", testED)
	st := write(t, "events.csv", testStream)
	if err := run(opts("", st), io.Discard, io.Discard); err == nil {
		t.Fatal("missing -ed accepted")
	}
	if err := run(opts(ed, "/nonexistent.csv"), io.Discard, io.Discard); err == nil {
		t.Fatal("missing stream accepted")
	}
	bad := write(t, "bad.rtec", "initiatedAt(((.")
	if err := run(opts(bad, st), io.Discard, io.Discard); err == nil {
		t.Fatal("bad event description accepted")
	}
	badStream := write(t, "bad.csv", "notatime,foo\n")
	if err := run(opts(ed, badStream), io.Discard, io.Discard); err == nil {
		t.Fatal("bad stream accepted")
	}
	// Strict mode surfaces unusable rules as errors.
	lax := write(t, "lax.rtec", testED+`
initiatedAt(broken(X)=true, T) :-
    holdsAt(withinArea(X, fishing)=true, T).
`)
	strictO := opts(lax, st)
	strictO.strict = true
	if err := run(strictO, io.Discard, io.Discard); err == nil {
		t.Fatal("strict mode accepted an unusable rule")
	}
	if err := run(opts(lax, st), io.Discard, io.Discard); err != nil {
		t.Fatalf("lenient mode failed: %v", err)
	}
	// -fluent filters the holdsFor listing only; with -csv it would be
	// silently ignored.
	filterO := opts(ed, st)
	filterO.fluent, filterO.csvOut = "withinArea/2", true
	if err := run(filterO, io.Discard, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "-fluent") || !strings.Contains(err.Error(), "-csv") {
		t.Fatalf("-fluent with -csv: err = %v, want a usage error naming both flags", err)
	}
	// The checkpoint's rename would replace the journal, -resume or not.
	sameO := opts(ed, st)
	sameO.journalPath = filepath.Join(t.TempDir(), "x")
	sameO.checkpoint = sameO.journalPath
	if err := run(sameO, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "same file") {
		t.Fatalf("-journal and -checkpoint on one file: err = %v, want a refusal", err)
	}
	if _, err := os.Stat(sameO.journalPath); err == nil {
		t.Fatal("refused run still created the journal/checkpoint file")
	}
	// Zero is the only value that means a default: a negative window, slide
	// or checkpoint cadence is refused, not read as whole-stream, tumbling or
	// every window.
	for _, tc := range []struct {
		flag string
		set  func(*options)
	}{
		{"-window", func(o *options) { o.window = -3600 }},
		{"-slide", func(o *options) { o.window, o.slide = 20, -10 }},
		{"-checkpoint-every", func(o *options) { o.maxDelay, o.checkpointEvery = 15, -1 }},
	} {
		neg := opts(ed, st)
		tc.set(&neg)
		if err := run(neg, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "negative") {
			t.Errorf("negative %s: err = %v, want a refusal", tc.flag, err)
		}
	}
	// An unwritable trace path must be reported.
	traceO := opts(ed, st)
	traceO.tel.TracePath = filepath.Join(t.TempDir(), "no", "such", "dir", "t.json")
	if err := run(traceO, io.Discard, io.Discard); err == nil {
		t.Fatal("unwritable trace path accepted")
	}
}

// mustRun runs the command and returns its stdout and stderr.
func mustRun(t *testing.T, o options) (string, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	if err := run(o, &out, &errOut); err != nil {
		t.Fatalf("%v\n%s", err, errOut.String())
	}
	return out.String(), errOut.String()
}

func TestLenientStreamQuarantinesBadRows(t *testing.T) {
	ed := write(t, "ed.rtec", testED)
	st := write(t, "events.csv", "10,entersArea,v1,a1\nnotatime,junk\n50,leavesArea,v1,a1\n")

	if err := run(opts(ed, st), io.Discard, io.Discard); err == nil {
		t.Fatal("strict CSV reading accepted a bad row")
	}
	o := opts(ed, st)
	o.lenient, o.csvOut = true, true
	if got, _ := mustRun(t, o); !strings.Contains(got, "withinArea(v1, fishing)=true") {
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
	want, _ := mustRun(t, base)
	o := opts(ed, st)
	o.window, o.csvOut, o.maxDelay = 20, true, 15
	if got, _ := mustRun(t, o); got != want {
		t.Fatalf("streaming output differs from batch:\n%s\nvs\n%s", got, want)
	}
}

// TestResumeFromCrashCheckpoint: a run killed after two windows leaves a
// checkpoint behind (written here through the engine API, as the killed
// process would have), and -resume continues from it to the uninterrupted
// run's output.
func TestResumeFromCrashCheckpoint(t *testing.T) {
	ed := write(t, "ed.rtec", testED)
	st := write(t, "events.csv",
		"10,entersArea,v1,a1\n30,entersArea,v2,a1\n50,leavesArea,v1,a1\n70,entersArea,v3,a1\n90,leavesArea,v2,a1\n")
	base := opts(ed, st)
	base.window, base.slide, base.csvOut = 20, 20, true
	want, _ := mustRun(t, base)
	o := base
	o.checkpoint, o.resume = filepath.Join(t.TempDir(), "run.ckpt"), true
	crashRun(t, ed, st, rtec.StreamOptions{
		RunOptions: rtec.RunOptions{Window: 20, Slide: 20}, CheckpointPath: o.checkpoint, CheckpointEvery: 1,
	}, 2)
	if got, _ := mustRun(t, o); got != want {
		t.Fatalf("resumed output differs from uninterrupted run:\n%s\nvs\n%s", got, want)
	}

	// -resume without -checkpoint is rejected.
	bad := base
	bad.resume = true
	if err := run(bad, io.Discard, io.Discard); err == nil {
		t.Fatal("-resume without -checkpoint accepted")
	}
}

// crashRun streams the CSV at streamPath through the event description at
// edPath and kills the run from the delivery callback once n windows have
// been delivered for the first time, leaving opts.CheckpointPath behind.
func crashRun(t *testing.T, edPath, streamPath string, opts rtec.StreamOptions, n int) {
	t.Helper()
	src, err := os.ReadFile(edPath)
	if err != nil {
		t.Fatal(err)
	}
	ed, err := parser.ParseEventDescription(string(src))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := rtec.New(ed, rtec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(streamPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := stream.ReadCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	errCrash := errors.New("simulated crash")
	_, err = eng.RunStream(events, opts, func(wr rtec.WindowResult) error {
		if wr.Revision == 0 {
			if n--; n <= 0 {
				return errCrash
			}
		}
		return nil
	})
	if !errors.Is(err, errCrash) {
		t.Fatalf("crashing run: err = %v, want the simulated crash", err)
	}
	if _, err := os.Stat(opts.CheckpointPath); err != nil {
		t.Fatalf("no checkpoint after the crash: %v", err)
	}
}
