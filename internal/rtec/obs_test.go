package rtec

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtecgen/internal/stream"
	"rtecgen/internal/telemetry"
	"rtecgen/internal/telemetry/journal"
)

// lateArrivals is the disordered fixture of the streaming tests: two eager
// emissions, one late revision, two flush deliveries.
func lateArrivals() stream.Stream {
	return stream.Stream{
		ev(2, "entersArea(v1, a1)"),
		ev(25, "gap_start(v9)"),
		ev(15, "leavesArea(v1, a1)"), // late by 10, within bound
	}
}

var lateOpts = StreamOptions{
	RunOptions: RunOptions{Window: 10, Start: 0, End: 40},
	MaxDelay:   20,
}

func TestStreamLagMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := mustEngine(t, withinAreaED, Options{Strict: true, Telemetry: telemetry.New(reg, nil, nil)})
	if _, err := e.RunStream(lateArrivals(), lateOpts, nil); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()

	// Frontier stops at 25; with MaxDelay 20 the watermark trails at 5.
	for name, want := range map[string]int64{
		"rtec.stream.frontier":      25,
		"rtec.stream.watermark":     5,
		"rtec.stream.watermark_age": 20,
	} {
		if got := s.Gauges[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if s.Gauges["rtec.reorder.high_water"] < s.Gauges["rtec.reorder.occupancy"] {
		t.Errorf("high_water %d below occupancy %d",
			s.Gauges["rtec.reorder.high_water"], s.Gauges["rtec.reorder.occupancy"])
	}
	if s.Gauges["rtec.reorder.high_water"] != 3 {
		t.Errorf("high_water = %d, want 3 (nothing pruned below watermark 5)", s.Gauges["rtec.reorder.high_water"])
	}

	// Arrival lag: 0 (frontier advance), 0 (frontier advance), 10 (late).
	al := s.Histograms["rtec.stream.arrival_lag"]
	if al.Count != 3 || al.Sum != 10 {
		t.Errorf("arrival_lag count=%d sum=%g, want 3/10", al.Count, al.Sum)
	}

	// Emit lag per delivery: q=10 at frontier 25 lags 15, q=20 lags 5, the
	// q=20 revision lags 5 again, and the q=30/q=40 flushes lag 0.
	el := s.Histograms["rtec.window.emit_lag"]
	if el.Count != 5 || el.Sum != 25 {
		t.Errorf("emit_lag count=%d sum=%g, want 5/25", el.Count, el.Sum)
	}
	if e2e := s.Histograms["rtec.window.e2e_micros"]; e2e.Count != 5 {
		t.Errorf("e2e_micros count = %d, want 5", e2e.Count)
	}

	// Per-stratum timing: withinArea is the only fluent, at stratum 0.
	if h := s.Histograms[stratumHistName(0)]; h.Count == 0 {
		t.Errorf("%s never observed", stratumHistName(0))
	}
}

func runJournal(t *testing.T, opts StreamOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	opts.Journal = journal.NewWriter(&buf, journal.Options{})
	if _, err := e.RunStream(lateArrivals(), opts, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestJournalRecordsAndDeterminism(t *testing.T) {
	a := runJournal(t, lateOpts)
	b := runJournal(t, lateOpts)
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed journals differ:\n%s\nvs\n%s", a, b)
	}

	stats, err := journal.Validate(bytes.NewReader(a))
	if err != nil {
		t.Fatalf("journal invalid: %v\n%s", err, a)
	}
	for typ, want := range map[string]int{
		"run_start": 1,
		"admission": 1, // only the late arrival; in-order admissions are not journalled
		"window":    5, // q=10, q=20, q=20 rev 1, q=30, q=40
		"run_end":   1,
	} {
		if stats.Types[typ] != want {
			t.Errorf("%s records = %d, want %d\n%s", typ, stats.Types[typ], want, a)
		}
	}

	recs, err := journal.Read(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Type != "run_start" || recs[len(recs)-1].Type != "run_end" {
		t.Fatalf("journal framing: first %s, last %s", recs[0].Type, recs[len(recs)-1].Type)
	}

	// The first delivery of q=20 asserts [10, 20); the revision retracts the
	// tail the late termination at 15 cut off and asserts nothing new.
	var first, revision string
	for _, rec := range recs {
		if rec.Type != "window" || !bytes.Contains(rec.Data, []byte(`"query_time":20`)) {
			continue
		}
		if bytes.Contains(rec.Data, []byte(`"revision":1`)) {
			revision = string(rec.Data)
		} else {
			first = string(rec.Data)
		}
	}
	if first == "" || revision == "" {
		t.Fatalf("missing q=20 deliveries in journal:\n%s", a)
	}
	if want := `"asserted":{"withinArea(v1, fishing)=true":[[10,20]]}`; !bytes.Contains([]byte(first), []byte(want)) {
		t.Errorf("first delivery missing %s:\n%s", want, first)
	}
	if want := `"retracted":{"withinArea(v1, fishing)=true":[[16,20]]}`; !bytes.Contains([]byte(revision), []byte(want)) {
		t.Errorf("revision record missing %s:\n%s", want, revision)
	}
	if bytes.Contains([]byte(revision), []byte(`"asserted"`)) {
		t.Errorf("pure retraction journalled an assertion:\n%s", revision)
	}
}

// journalGoldenED and journalGoldenArrivals are the input of the golden
// journal: one fluent over two vessels, the last arrival late by 10 within
// a delay bound of 15.
const (
	journalGoldenED = `
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
	journalGoldenArrivals = "10,entersArea,v1,a1\n60,entersArea,v2,a1\n50,leavesArea,v1,a1\n"
)

// TestJournalGolden pins the audit journal byte for byte: same-seed runs
// journal identically, and the layout matches the committed golden (refresh
// with `go test ./internal/rtec -run TestJournalGolden -update`).
func TestJournalGolden(t *testing.T) {
	arrivals, err := stream.ReadCSV(strings.NewReader(journalGoldenArrivals))
	if err != nil {
		t.Fatal(err)
	}
	runOnce := func() []byte {
		var buf bytes.Buffer
		e := mustEngine(t, journalGoldenED, Options{Strict: true, Workers: 1})
		if _, err := e.RunStream(arrivals, StreamOptions{
			RunOptions: RunOptions{Window: 20, Slide: 20},
			MaxDelay:   15,
			Journal:    journal.NewWriter(&buf, journal.Options{}),
		}, nil); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := runOnce(), runOnce()
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed journals differ:\n%s\nvs\n%s", a, b)
	}
	if _, err := journal.Validate(bytes.NewReader(a)); err != nil {
		t.Fatalf("journal invalid: %v\n%s", err, a)
	}
	golden := filepath.Join("testdata", "journal.golden.jsonl")
	if *update {
		if err := os.WriteFile(golden, a, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if want := readFile(t, golden); string(a) != want {
		t.Fatalf("journal deviates from the golden (refresh with -update if intended):\n%s\nwant:\n%s", a, want)
	}
}

// TestJournalCheckpointAndResume: a run killed after a checkpoint and
// resumed from it through ResumeStreamRunner, its journal cut back to that
// checkpoint's record and continued, journals byte for byte what the
// uninterrupted run does — no record marks the crash or the restore.
func TestJournalCheckpointAndResume(t *testing.T) {
	opts := lateOpts
	opts.CheckpointPath = filepath.Join(t.TempDir(), "ckpt.json")
	opts.CheckpointEvery = 1
	e := mustEngine(t, withinAreaED, Options{Strict: true})

	var want bytes.Buffer
	wantOpts := opts
	wantOpts.CheckpointPath = filepath.Join(t.TempDir(), "clean.json")
	wantOpts.Journal = journal.NewWriter(&want, journal.Options{})
	if _, err := e.RunStream(lateArrivals(), wantOpts, nil); err != nil {
		t.Fatal(err)
	}

	var crashed bytes.Buffer
	runOpts := opts
	runOpts.Journal = journal.NewWriter(&crashed, journal.Options{})
	// Deliveries q=10 and q=20 ride arrival 2 (then its checkpoint lands);
	// the revision on arrival 3 is delivery 3, where the crash hits.
	if _, err := e.RunStream(lateArrivals(), runOpts, crashAfter(3)); !errors.Is(err, errCrash) {
		t.Fatalf("crashing run err = %v, want the crash", err)
	}
	recs, err := journal.Read(bytes.NewReader(crashed.Bytes()))
	if err != nil {
		t.Fatalf("crashed run journal invalid: %v\n%s", err, crashed.Bytes())
	}
	// Keep the records through the last checkpoint, as a shard's staged
	// journal is committed at its checkpoints.
	lines := bytes.SplitAfter(crashed.Bytes(), []byte("\n"))
	keep := -1
	for i, rec := range recs {
		if rec.Type == "checkpoint" {
			keep = i
		}
	}
	if keep < 0 || keep == len(recs)-1 {
		t.Fatalf("want a checkpoint record followed by records the crash discards:\n%s", crashed.Bytes())
	}
	var got bytes.Buffer
	got.Write(bytes.Join(lines[:keep+1], nil))
	runOpts.Journal = journal.NewWriterResumed(&got, journal.Options{},
		journal.RecoverInfo{Records: keep + 1, LastSeq: recs[keep].Seq, Written: int64(got.Len())})
	if _, err := resumeStream(e, runOpts.CheckpointPath, lateArrivals(), runOpts, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("resumed journal differs from the uninterrupted run's:\n%s\nwant:\n%s", got.Bytes(), want.Bytes())
	}
}

func TestReorderOccupancyHighWater(t *testing.T) {
	r := stream.NewReorder(100)
	for i, e := range lateArrivals() {
		r.Push(e)
		if r.Occupancy() != i+1 {
			t.Fatalf("occupancy after %d pushes = %d", i+1, r.Occupancy())
		}
	}
	if r.HighWater() != 3 {
		t.Fatalf("high water = %d, want 3", r.HighWater())
	}
	r.Drop(20)
	if r.Occupancy() != 1 {
		t.Fatalf("occupancy after drop = %d, want 1", r.Occupancy())
	}
	if r.HighWater() != 3 {
		t.Fatalf("high water after drop = %d, want 3 (monotone)", r.HighWater())
	}
}

// lateAdmissionAllocCeiling bounds the heap allocations of one journalled
// late admission into a window not yet emitted: the reorder buffer's
// insertion, the gauges and the journal's admission record. Push renders the
// atom once, for its buffer key, and hands that text to the record: 5
// objects (amortised over the buffer's growth), 6 when the record renders
// the atom again. The ceiling is the count itself: one rendering is the
// only thing a second one would add.
const lateAdmissionAllocCeiling = 5

// raceDetector is set when the tests run under the race detector
// (race_test.go).
var raceDetector bool

func TestLateAdmissionAllocCeiling(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not exact under the race detector")
	}
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	const runs = 200
	r, err := e.NewStreamRunner(StreamOptions{
		RunOptions: RunOptions{Window: 10000, Start: 0, End: 10000},
		MaxDelay:   5000,
		Journal:    journal.NewWriter(io.Discard, journal.Options{}),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Abort()
	if err := r.Ingest(ev(5000, "gap_start(v0)")); err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun calls the function once more than runs, to warm up.
	arrivals := make(stream.Stream, runs+1)
	for i := range arrivals {
		arrivals[i] = ev(int64(i+1), fmt.Sprintf("velocity(vessel%d, %d.5, 187.25, 187.25)", i, i%30))
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := r.Ingest(arrivals[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if late := r.st.reorder.Stats().Late; late != runs+1 {
		t.Fatalf("%d late admissions, want %d", late, runs+1)
	}
	t.Logf("%.2f allocs per journalled late admission, ceiling %d", allocs, lateAdmissionAllocCeiling)
	if allocs > lateAdmissionAllocCeiling {
		t.Fatalf("a journalled late admission allocates %.2f objects, ceiling %d", allocs, lateAdmissionAllocCeiling)
	}
}
