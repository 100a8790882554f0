package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"rtecgen/internal/maritime"
	"rtecgen/internal/parser"
	"rtecgen/internal/rtec"
	"rtecgen/internal/stream"
)

const testED = `
inputEvent(entersArea(_, _)).
inputEvent(leavesArea(_, _)).
areaType(a1, fishing).
areaType(a2, anchorage).

initiatedAt(withinArea(Vl, AreaType)=true, T) :-
    happensAt(entersArea(Vl, AreaID), T),
    areaType(AreaID, AreaType).

terminatedAt(withinArea(Vl, AreaType)=true, T) :-
    happensAt(leavesArea(Vl, AreaID), T),
    areaType(AreaID, AreaType).
`

// testEvents is an in-order stream of n area crossings by six vessels over
// [0, 1000).
func testEvents(n int) stream.Stream {
	r := rand.New(rand.NewSource(7))
	kinds := []string{"entersArea", "leavesArea"}
	events := make(stream.Stream, n)
	for i := range events {
		atom := fmt.Sprintf("%s(v%d, a%d)", kinds[r.Intn(2)], 1+r.Intn(6), 1+r.Intn(2))
		events[i] = stream.Event{Time: int64(i * 1000 / n), Atom: parser.MustParseTerm(atom)}
	}
	return events
}

// TestRunRefusesBadPlan: a geometry the engine refuses fails the start
// before the port is bound or a journal file is created, instead of a
// daemon whose engine is degraded; so does a journal on the checkpoint's
// path, which a checkpoint rename would replace, a -workers other than 0
// and a -shards other than 1 (stubs the benchmark passes 0 and 1 to).
func TestRunRefusesBadPlan(t *testing.T) {
	dir := t.TempDir()
	edPath := filepath.Join(dir, "ed.rtec")
	if err := os.WriteFile(edPath, []byte(testED), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, set := range map[string]func(*options){
		"slide > window": func(o *options) { o.slide = 7200 },
		"negative slide": func(o *options) { o.slide = -900 },
		"start == end":   func(o *options) { o.start, o.end = 100000, 100000 },
		"start > end":    func(o *options) { o.start, o.end = 100000, 1 },
	} {
		o := options{
			edPath: edPath, listen: "127.0.0.1:0",
			window: 3600, start: 1, end: 100000, shards: 1,
			checkpoint:  filepath.Join(dir, "ck"),
			journalPath: filepath.Join(dir, "d.jsonl"),
		}
		set(&o)
		refused(t, name, o, "rtec:")
	}
	same := filepath.Join(dir, "run")
	refused(t, "journal is checkpoint", options{
		edPath: edPath, listen: "127.0.0.1:0",
		window: 3600, start: 1, end: 100000, shards: 1,
		checkpoint: same, journalPath: same,
	}, "same file")
	refused(t, "workers stub", options{
		edPath: edPath, listen: "127.0.0.1:0",
		window: 3600, start: 1, end: 100000, shards: 1, workers: 2,
		checkpoint: filepath.Join(dir, "ck"), journalPath: filepath.Join(dir, "w.jsonl"),
	}, "-workers 2")
	for _, shards := range []int{0, 2, 4} {
		refused(t, "shards stub", options{
			edPath: edPath, listen: "127.0.0.1:0",
			window: 3600, start: 1, end: 100000, shards: shards,
			checkpoint: filepath.Join(dir, "ck"), journalPath: filepath.Join(dir, "s.jsonl"),
		}, fmt.Sprintf("-shards %d", shards))
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

// TestStrictLoad: the daemon always loads its event description strictly.
// A rule the engine cannot run fails the start before the port is bound (no
// stream is read) or a journal file is created. An event description whose
// defect shows only at run time loads, and so does the gold one, and the
// /finish CSV is the lenient engine's, byte for byte.
func TestStrictLoad(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range unrunnable {
		o := options{
			edPath: filepath.Join(dir, "ed.rtec"), listen: "127.0.0.1:0",
			window: 3600, start: 1, end: 100000, shards: 1,
			checkpoint:  filepath.Join(dir, "ck"),
			journalPath: filepath.Join(dir, "d.jsonl"),
		}
		if err := os.WriteFile(o.edPath, []byte(testED+tc.rules), 0o644); err != nil {
			t.Fatal(err)
		}
		refused(t, tc.name, o, "dropped")
	}

	scen, err := maritime.BuildScenario(maritime.ScenarioConfig{Vessels: 4, Seed: 7, IntervalSec: 60})
	if err != nil {
		t.Fatal(err)
	}
	events := stream.Stream(maritime.Preprocess(scen.Messages, scen.Map, maritime.DefaultPreprocessConfig()))
	var bg strings.Builder
	for _, c := range maritime.BackgroundClauses(scen.Map, scen.Fleet, maritime.ObservedPairs(events)) {
		fmt.Fprintln(&bg, c)
	}
	for _, fact := range maritime.DynamicFacts(events, scen.Fleet) {
		fmt.Fprintf(&bg, "%s.\n", fact)
	}
	doomed, err := os.ReadFile(filepath.Join("..", "..", "examples", "lint", "doomed_threshold.prolog"))
	if err != nil {
		t.Fatal(err)
	}
	first, last := events.TimeRange()
	for name, src := range map[string]string{
		"doomed threshold": string(doomed) + bg.String(),
		"gold":             maritime.GoldSource() + bg.String(),
	} {
		dir := t.TempDir()
		o := options{
			edPath: filepath.Join(dir, "ed.rtec"), listen: "127.0.0.1:0",
			window: 3600, start: first, end: last + 1,
			checkpoint: filepath.Join(dir, "d.ckpt"), checkpointEvery: 1,
			shards: 1,
		}
		if err := os.WriteFile(o.edPath, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		got := serveAndFinish(t, o, events)
		if want := lenientCSV(t, src, events, rtec.RunOptions{Window: o.window, Start: o.start, End: o.end}); !bytes.Equal(got, want) || bytes.Count(got, []byte("\n")) < 10 {
			t.Errorf("%s: strict daemon CSV differs from the lenient engine's or is nearly empty:\n%s\nvs\n%s", name, got, want)
		}
	}
}

// refused runs the daemon with o and requires it to fail the start with an
// error mentioning want, before binding the port or creating a journal file.
func refused(t *testing.T, name string, o options, want string) {
	t.Helper()
	stderr, err := os.Create(filepath.Join(t.TempDir(), "stderr.txt"))
	if err != nil {
		t.Fatal(err)
	}
	runErr := run(o, stderr)
	stderr.Close()
	if runErr == nil || !strings.Contains(runErr.Error(), want) {
		t.Fatalf("%s: err = %v, want a refusal naming %q", name, runErr, want)
	}
	logged, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(logged), "listening") {
		t.Errorf("%s: refused only after binding:\n%s", name, logged)
	}
	if files, _ := filepath.Glob(o.journalPath + "*"); len(files) > 0 {
		t.Errorf("%s: refused start left journal files %v", name, files)
	}
}

// lenientCSV is the recognition CSV of a lenient batch engine over src.
func lenientCSV(t *testing.T, src string, events stream.Stream, opts rtec.RunOptions) []byte {
	t.Helper()
	ed, err := parser.ParseEventDescription(src)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := rtec.New(ed, rtec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := eng.Run(events, opts)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := rec.WriteCSV(&out); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestDaemonMatchesBatchEngine runs the daemon in-process, POSTs a stream
// longer than the 256-arrival shard queue in 20-line batches, and requires
// every batch to be acknowledged 200 and the /finish CSV to be the batch
// engine's over the same stream.
func TestDaemonMatchesBatchEngine(t *testing.T) {
	dir := t.TempDir()
	edPath := filepath.Join(dir, "ed.rtec")
	if err := os.WriteFile(edPath, []byte(testED), 0o644); err != nil {
		t.Fatal(err)
	}
	events := testEvents(600)
	o := options{
		edPath: edPath, listen: "127.0.0.1:0",
		window: 100, start: 0, end: 1000,
		checkpoint: filepath.Join(dir, "d.ckpt"), checkpointEvery: 1,
		shards: 1,
	}
	got := serveAndFinish(t, o, events)
	if want := lenientCSV(t, testED, events, rtec.RunOptions{Window: o.window, Start: o.start, End: o.end}); !bytes.Equal(got, want) {
		t.Fatalf("daemon CSV differs from the batch engine's:\n%s\nvs\n%s", got, want)
	}
}

// serveAndFinish runs the daemon in-process with o, POSTs events in 20-line
// batches, each of which must be acknowledged 200, and returns the /finish
// CSV once a SIGTERM has drained the daemon.
func serveAndFinish(t *testing.T, o options, events stream.Stream) []byte {
	t.Helper()
	// run reports its address on stderr and returns once a signal drained it.
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	exited := make(chan error, 1)
	go func() {
		exited <- run(o, pw)
		pw.Close()
	}()
	lines := bufio.NewScanner(pr)
	var addr string
	for addr == "" && lines.Scan() {
		addr, _ = strings.CutPrefix(lines.Text(), "rtecd: listening on ")
	}
	if addr == "" {
		t.Fatalf("daemon never reported its address: %v", <-exited)
	}
	go io.Copy(io.Discard, pr) //nolint:errcheck // keeps the daemon's stderr from filling the pipe

	post := func(path string, body []byte) (int, []byte) {
		t.Helper()
		res, err := http.Post("http://"+addr+path, "application/x-ndjson", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		out, err := io.ReadAll(res.Body)
		if err != nil {
			t.Fatal(err)
		}
		return res.StatusCode, out
	}
	for i := 0; i < len(events); i += 20 {
		var body bytes.Buffer
		if err := events[i:min(i+20, len(events))].WriteNDJSON(&body); err != nil {
			t.Fatal(err)
		}
		if code, out := post("/ingest", body.Bytes()); code != http.StatusOK {
			t.Fatalf("batch at line %d answered %d: %s", i, code, out)
		}
	}
	code, got := post("/finish", nil)
	if code != http.StatusOK {
		t.Fatalf("/finish answered %d: %s", code, got)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := <-exited; err != nil {
		t.Fatalf("daemon did not drain cleanly: %v", err)
	}
	return got
}
