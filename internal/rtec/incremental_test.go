package rtec

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"rtecgen/internal/stream"
	"rtecgen/internal/telemetry/journal"
)

// feedRunner pushes a whole stream through a runner and finishes it.
func feedRunner(t *testing.T, r *StreamRunner, arrivals stream.Stream) *StreamResult {
	t.Helper()
	for _, e := range arrivals {
		if err := r.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	res, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestStreamRunnerMatchesRunStream: feeding arrivals one at a time through
// the incremental runner is indistinguishable from RunStream — same
// recognition bytes, same stats, same journal bytes, same delivered window
// sequence.
func TestStreamRunnerMatchesRunStream(t *testing.T) {
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	arrivals := chaosArrivals(t, 7, 60)
	first, last := stream.Stream(arrivals).TimeRange()
	opts := StreamOptions{
		RunOptions: RunOptions{Window: 100, Start: first, End: last + 1},
		MaxDelay:   60,
	}

	var wantJ bytes.Buffer
	wopts := opts
	wopts.Journal = journal.NewWriter(&wantJ, journal.Options{})
	var wantWindows []int64
	want, err := e.RunStream(arrivals, wopts, func(wr WindowResult) error {
		wantWindows = append(wantWindows, wr.QueryTime)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var gotJ bytes.Buffer
	gopts := opts
	gopts.Journal = journal.NewWriter(&gotJ, journal.Options{})
	var gotWindows []int64
	r, err := e.NewStreamRunner(gopts, func(wr WindowResult) error {
		gotWindows = append(gotWindows, wr.QueryTime)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := feedRunner(t, r, arrivals)

	if a, b := csvOf(t, want.Recognition), csvOf(t, got.Recognition); a != b {
		t.Fatalf("incremental CSV differs:\n%s\nvs\n%s", b, a)
	}
	if want.Stats != got.Stats {
		t.Fatalf("stats differ: %+v vs %+v", want.Stats, got.Stats)
	}
	if !bytes.Equal(wantJ.Bytes(), gotJ.Bytes()) {
		t.Fatalf("journals differ:\n%s\nvs\n%s", wantJ.String(), gotJ.String())
	}
	if len(wantWindows) != len(gotWindows) {
		t.Fatalf("delivered %d windows incrementally, %d batch", len(gotWindows), len(wantWindows))
	}
}

// TestStreamRunnerFlushPinsEmittedCount pins the end-of-stream drain at the
// engine level: a stream whose final events sit inside the reorder buffer
// (the watermark never passes the last windows) must still deliver every
// planned window, evaluated over the buffered tail.
func TestStreamRunnerFlushPinsEmittedCount(t *testing.T) {
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	// maxDelay is huge relative to the time-line: the watermark never
	// passes any event, so everything stays buffered (revisable) to the
	// end. Deliveries still follow the frontier; the final window's
	// delivery happens only in the Finish flush, from buffered events.
	arrivals := stream.Stream{
		ev(2, "entersArea(v1, a1)"),
		ev(35, "leavesArea(v1, a1)"),
	}
	opts := StreamOptions{
		RunOptions: RunOptions{Window: 10, Start: 0, End: 40},
		MaxDelay:   1000,
	}
	delivered := 0
	r, err := e.NewStreamRunner(opts, func(wr WindowResult) error {
		delivered++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Ingest(arrivals[0]); err != nil {
		t.Fatal(err)
	}
	if err := r.Ingest(arrivals[1]); err != nil {
		t.Fatal(err)
	}
	// Frontier 35 passed query times 10, 20 and 30; window 40 is pending.
	if delivered != 3 {
		t.Fatalf("windows delivered before Finish = %d, want 3", delivered)
	}
	if occ := r.st.reorder.Occupancy(); occ == 0 {
		t.Fatal("bad premise: nothing buffered at end of stream")
	}
	res, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// Timeline [0,40) window 10 → query times 10,20,30,40: all 4 delivered.
	if delivered != 4 {
		t.Fatalf("delivered %d windows, want 4: buffered in-flight events were dropped", delivered)
	}
	if r.Windows() != 4 {
		t.Fatalf("Windows() = %d, want 4", r.Windows())
	}
	// The buffered events made it into the evaluations.
	if got := csvOf(t, res.Recognition); got == "" {
		t.Fatal("flush lost the buffered events: empty recognition")
	}
	want, err := e.Run(arrivals, RunOptions{Window: 10, Start: 0, End: 40})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := csvOf(t, want), csvOf(t, res.Recognition); a != b {
		t.Fatalf("flushed run differs from batch:\n%s\nvs\n%s", b, a)
	}
}

// TestStreamRunnerResumeQuiet: ResumeStreamRunner replays to the same final
// state without journalling restart markers — the audit trail is
// byte-identical to the uninterrupted incremental run.
func TestStreamRunnerResumeQuiet(t *testing.T) {
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	arrivals := chaosArrivals(t, 11, 40)
	first, last := stream.Stream(arrivals).TimeRange()
	mk := func(j *journal.Writer, ckpt string) StreamOptions {
		return StreamOptions{
			RunOptions:      RunOptions{Window: 80, Start: first, End: last + 1},
			MaxDelay:        40,
			CheckpointPath:  ckpt,
			CheckpointEvery: 1,
			Journal:         j,
		}
	}

	var wantJ bytes.Buffer
	r, err := e.NewStreamRunner(mk(journal.NewWriter(&wantJ, journal.Options{}), filepath.Join(t.TempDir(), "a.ckpt")), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := feedRunner(t, r, arrivals)

	// Interrupted run: ingest half, abort, resume from the checkpoint with
	// the journal cut back to the record the checkpoint covers.
	ckpt := filepath.Join(t.TempDir(), "b.ckpt")
	var crashed bytes.Buffer
	r2, err := e.NewStreamRunner(mk(journal.NewWriter(&crashed, journal.Options{}), ckpt), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range arrivals[:len(arrivals)/2] {
		if err := r2.Ingest(ev); err != nil {
			t.Fatal(err)
		}
	}
	r2.Abort()

	cp, err := LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	gotJ, jw := continueJournal(crashed.Bytes(), cp.JournalSeq)
	r3, err := e.ResumeStreamRunner(cp, mk(jw, ckpt), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Consumed() != cp.Consumed {
		t.Fatalf("resumed cursor = %d, want %d", r3.Consumed(), cp.Consumed)
	}
	got := feedRunner(t, r3, arrivals[cp.Consumed:])

	if a, b := csvOf(t, want.Recognition), csvOf(t, got.Recognition); a != b {
		t.Fatalf("resumed incremental CSV differs:\n%s\nvs\n%s", b, a)
	}
	if !bytes.Equal(wantJ.Bytes(), gotJ.Bytes()) {
		t.Fatalf("resumed journal differs from uninterrupted:\n%s\nvs\n%s", gotJ.String(), wantJ.String())
	}
}

func TestStreamRunnerNeedsBounds(t *testing.T) {
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	if _, err := e.NewStreamRunner(StreamOptions{RunOptions: RunOptions{Window: 10}}, nil); err == nil {
		t.Fatal("runner planned without explicit bounds")
	}
}

func TestStreamRunnerLifecycleErrors(t *testing.T) {
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	r, err := e.NewStreamRunner(StreamOptions{RunOptions: RunOptions{Window: 10, Start: 0, End: 20}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := r.Ingest(ev(1, "entersArea(v1, a1)")); err == nil {
		t.Fatal("Ingest after Finish accepted")
	}
	var errTwice error
	if _, errTwice = r.Finish(); errTwice == nil {
		t.Fatal("second Finish accepted")
	}
	_ = errors.Is(errTwice, nil)
}
