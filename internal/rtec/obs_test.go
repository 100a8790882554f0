package rtec

import (
	"bytes"
	"path/filepath"
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

func TestJournalCheckpointAndResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	opts := lateOpts
	opts.CheckpointPath = path
	opts.CheckpointEvery = 1

	var first bytes.Buffer
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	runOpts := opts
	runOpts.Journal = journal.NewWriter(&first, journal.Options{})
	// Deliveries q=10 and q=20 ride arrival 2 (then its checkpoint lands);
	// the revision on arrival 3 is delivery 3, where the crash hits.
	if _, err := e.RunStream(lateArrivals(), runOpts, crashAfter(3)); err == nil {
		t.Fatal("crash callback did not abort the run")
	}
	stats, err := journal.Validate(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("crashed run journal invalid: %v\n%s", err, first.Bytes())
	}
	if stats.Types["checkpoint"] == 0 {
		t.Fatalf("no checkpoint records before the crash:\n%s", first.Bytes())
	}

	var resumed bytes.Buffer
	resOpts := opts
	resOpts.Journal = journal.NewWriter(&resumed, journal.Options{})
	if _, err := e.ResumeStream(path, lateArrivals(), resOpts, nil); err != nil {
		t.Fatal(err)
	}
	stats, err = journal.Validate(bytes.NewReader(resumed.Bytes()))
	if err != nil {
		t.Fatalf("resumed journal invalid: %v\n%s", err, resumed.Bytes())
	}
	if stats.Types["checkpoint_restore"] != 1 || stats.Types["run_start"] != 1 || stats.Types["run_end"] != 1 {
		t.Fatalf("resumed journal types = %v\n%s", stats.Types, resumed.Bytes())
	}
	recs, err := journal.Read(bytes.NewReader(resumed.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Type != "run_start" || recs[1].Type != "checkpoint_restore" {
		t.Fatalf("resumed journal starts %s, %s; want run_start, checkpoint_restore", recs[0].Type, recs[1].Type)
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
