package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtecgen/internal/maritime"
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
	// -fluent filters the holdsFor listing only; with -csv it would be
	// silently ignored.
	filterO := opts(ed, st)
	filterO.fluent, filterO.csvOut = "withinArea/2", true
	if err := run(filterO, io.Discard, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "-fluent") || !strings.Contains(err.Error(), "-csv") {
		t.Fatalf("-fluent with -csv: err = %v, want a usage error naming both flags", err)
	}
	// Zero is the only value that means a default: a negative window or
	// slide is refused, not read as whole-stream or tumbling.
	for _, tc := range []struct {
		flag string
		set  func(*options)
	}{
		{"-window", func(o *options) { o.window = -3600 }},
		{"-slide", func(o *options) { o.window, o.slide = 20, -10 }},
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

// unrunnable are rules a lenient engine would drop at load, each appended to
// testED by TestStrictLoad.
var unrunnable = []struct{ name, rules string }{
	{"cyclic definition", `
initiatedAt(p(X)=true, T) :- happensAt(entersArea(X, A), T), holdsAt(q(X)=true, T).
initiatedAt(q(X)=true, T) :- happensAt(leavesArea(X, A), T), holdsAt(p(X)=true, T).
`},
	{"malformed condition", `
holdsFor(busy(X)=true, I) :- happensAt(entersArea(X, A), I).
`},
	{"no anchor", `
initiatedAt(broken(X)=true, T) :- holdsAt(withinArea(X, fishing)=true, T).
`},
}

// TestStrictLoad: the command always loads its event description strictly.
// A rule the engine cannot run fails the command before the stream is read
// (the stream here is malformed, so reading it first would fail on the
// stream instead). An event description whose defect shows
// only at run time loads, and so does the gold one, and their output is the
// lenient engine's, byte for byte.
func TestStrictLoad(t *testing.T) {
	badStream := write(t, "bad.csv", "notatime,junk\n")
	for _, tc := range unrunnable {
		o := opts(write(t, "ed.rtec", testED+tc.rules), badStream)
		if err := run(o, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "dropped") {
			t.Errorf("%s: err = %v, want the load refusal", tc.name, err)
		}
	}

	scen, err := maritime.BuildScenario(maritime.ScenarioConfig{Vessels: 4, Seed: 7, IntervalSec: 60})
	if err != nil {
		t.Fatal(err)
	}
	evs := stream.Stream(maritime.Preprocess(scen.Messages, scen.Map, maritime.DefaultPreprocessConfig()))
	var bg, csv strings.Builder
	for _, c := range maritime.BackgroundClauses(scen.Map, scen.Fleet, maritime.ObservedPairs(evs)) {
		fmt.Fprintln(&bg, c)
	}
	for _, fact := range maritime.DynamicFacts(evs, scen.Fleet) {
		fmt.Fprintf(&bg, "%s.\n", fact)
	}
	if err := evs.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	events := write(t, "events.csv", csv.String())
	doomed, err := os.ReadFile(filepath.Join("..", "..", "examples", "lint", "doomed_threshold.prolog"))
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]string{
		"doomed threshold": string(doomed) + bg.String(),
		"gold":             maritime.GoldSource() + bg.String(),
	} {
		o := opts(write(t, "ed.rtec", src), events)
		o.window, o.slide, o.csvOut = 3600, 900, true
		got, _ := mustRun(t, o)

		ed, err := parser.ParseEventDescription(src)
		if err != nil {
			t.Fatal(err)
		}
		lenient, err := rtec.New(ed, rtec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := lenient.Run(evs, rtec.RunOptions{Window: 3600, Slide: 900})
		if err != nil {
			t.Fatal(err)
		}
		var want strings.Builder
		if err := rec.WriteCSV(&want); err != nil {
			t.Fatal(err)
		}
		if got != want.String() || strings.Count(got, "\n") < 10 {
			t.Errorf("%s: strict output differs from the lenient engine's or is nearly empty:\n%s\nvs\n%s", name, got, want.String())
		}
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
