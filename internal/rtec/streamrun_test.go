package rtec

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"rtecgen/internal/intervals"
	"rtecgen/internal/stream"
)

func csvOf(t *testing.T, r *Recognition) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// boundedShuffle permutes a sorted stream into an arrival order in which no
// event is displaced by more than maxDelay time-points: each event is
// assigned a random delivery delay in [0, maxDelay] and arrivals are ordered
// by delivery time. At the moment an event with time t arrives, every
// earlier arrival e' has t'+d' <= t+d, so the frontier is at most
// t + maxDelay and the event is never behind the watermark.
func boundedShuffle(r *rand.Rand, s stream.Stream, maxDelay int64) stream.Stream {
	type delayed struct {
		e   stream.Event
		due int64
		idx int
	}
	ds := make([]delayed, len(s))
	for i, e := range s {
		var d int64
		if maxDelay > 0 {
			d = r.Int63n(maxDelay + 1)
		}
		ds[i] = delayed{e: e, due: e.Time + d, idx: i}
	}
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].due != ds[j].due {
			return ds[i].due < ds[j].due
		}
		return ds[i].idx < ds[j].idx
	})
	out := make(stream.Stream, len(s))
	for i, d := range ds {
		out[i] = d.e
	}
	return out
}

func TestRunStreamInOrderMatchesRun(t *testing.T) {
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	events := stream.Stream{
		ev(10, "entersArea(v1, a1)"),
		ev(20, "leavesArea(v1, a1)"),
		ev(30, "entersArea(v1, a2)"),
		ev(40, "gap_start(v1)"),
		ev(50, "entersArea(v2, a1)"),
	}
	for _, window := range []int64{0, 15, 25} {
		want, err := e.Run(events, RunOptions{Window: window})
		if err != nil {
			t.Fatal(err)
		}
		var deliveries int
		got, err := e.RunStream(events, StreamOptions{RunOptions: RunOptions{Window: window}},
			func(wr WindowResult) error {
				if wr.Revision != 0 || wr.Retracted != nil {
					t.Fatalf("in-order delivery revised: %+v", wr)
				}
				deliveries++
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if a, b := csvOf(t, want), csvOf(t, got.Recognition); a != b {
			t.Fatalf("window %d: stream CSV differs from in-order run:\n%s\nvs\n%s", window, b, a)
		}
		if deliveries == 0 {
			t.Fatal("no windows delivered")
		}
		s := got.Stats
		if s.Late != 0 || s.Dropped != 0 || s.Duplicates != 0 || s.Revisions != 0 {
			t.Fatalf("in-order stats = %s", s)
		}
		if s.Observed != int64(len(events)) || s.Accepted != int64(len(events)) {
			t.Fatalf("stats = %s, want %d observed/accepted", s, len(events))
		}
	}
}

func TestRunStreamLateEventRevisesWindow(t *testing.T) {
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	opts := StreamOptions{
		RunOptions: RunOptions{Window: 10, Start: 0, End: 40},
		MaxDelay:   20,
	}
	arrivals := stream.Stream{
		ev(2, "entersArea(v1, a1)"),
		ev(25, "gap_start(v9)"),      // frontier 25: windows q=10 and q=20 emit
		ev(15, "leavesArea(v1, a1)"), // late by 10, within bound: revises q=20
	}
	var results []WindowResult
	got, err := e.RunStream(arrivals, opts, func(wr WindowResult) error {
		results = append(results, wr)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Deliveries: q=10 and q=20 eagerly, the q=20 revision, then the
	// q=30 and q=40 flush.
	type delivery struct {
		q   int64
		rev int
	}
	var seq []delivery
	for _, wr := range results {
		seq = append(seq, delivery{wr.QueryTime, wr.Revision})
	}
	want := []delivery{{10, 0}, {20, 0}, {20, 1}, {30, 0}, {40, 0}}
	if fmt.Sprint(seq) != fmt.Sprint(want) {
		t.Fatalf("deliveries = %v, want %v", seq, want)
	}

	// The revision retracts the tail the termination at 15 cut off:
	// the first delivery of q=20 reported [10, 20), the revision [10, 16).
	rev := results[2]
	key := "withinArea(v1, fishing)=true"
	if !rev.Recognised[key].Equal(intervals.List{ivl(10, 16)}) {
		t.Fatalf("revised window recognised %s", rev.Recognised[key])
	}
	if !rev.Retracted[key].Equal(intervals.List{ivl(16, 20)}) {
		t.Fatalf("retracted = %v, want [16, 20)", rev.Retracted)
	}

	if got.Stats.Late != 1 || got.Stats.Revisions != 1 || got.Stats.Dropped != 0 {
		t.Fatalf("stats = %s", got.Stats)
	}
	checkIntervals(t, got.Recognition, key, intervals.List{ivl(3, 16)})

	// The final recognition equals the in-order run over the same events.
	sorted := make(stream.Stream, len(arrivals))
	copy(sorted, arrivals)
	sorted.Sort()
	inOrder, err := e.Run(sorted, opts.RunOptions)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := csvOf(t, inOrder), csvOf(t, got.Recognition); a != b {
		t.Fatalf("converged CSV differs:\n%s\nvs\n%s", b, a)
	}
}

func TestRunStreamRevisionCascadesAcrossWindows(t *testing.T) {
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	opts := StreamOptions{
		RunOptions: RunOptions{Window: 10, Start: 0, End: 40},
		MaxDelay:   30,
	}
	// The late entersArea initiates a fluent in window q=10 whose inertia
	// carry-over flows through q=20 and q=30: all three emitted windows
	// must be revised even though only the first contains the event.
	arrivals := stream.Stream{
		ev(1, "gap_start(v9)"),
		ev(35, "gap_start(v8)"), // frontier 35: q=10, 20, 30 emit (all empty for v1)
		ev(5, "entersArea(v1, a1)"),
	}
	var revisedQs []int64
	got, err := e.RunStream(arrivals, opts, func(wr WindowResult) error {
		if wr.Revision > 0 {
			revisedQs = append(revisedQs, wr.QueryTime)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(revisedQs) != fmt.Sprint([]int64{10, 20, 30}) {
		t.Fatalf("revised query times = %v, want [10 20 30]", revisedQs)
	}
	if got.Stats.Revisions != 3 {
		t.Fatalf("stats = %s, want 3 revisions", got.Stats)
	}
	checkIntervals(t, got.Recognition, "withinArea(v1, fishing)=true", intervals.List{ivl(6, 40)})
}

func TestRunStreamDropsTooLateEvents(t *testing.T) {
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	opts := StreamOptions{
		RunOptions: RunOptions{Window: 10, Start: 0, End: 40},
		MaxDelay:   5,
	}
	arrivals := stream.Stream{
		ev(2, "entersArea(v1, a1)"),
		ev(25, "gap_start(v9)"),
		ev(15, "leavesArea(v1, a1)"), // late by 10 > bound 5: dropped
	}
	got, err := e.RunStream(arrivals, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Dropped != 1 || got.Stats.Late != 0 || got.Stats.Revisions != 0 {
		t.Fatalf("stats = %s", got.Stats)
	}
	// The dropped termination never happened: the in-order equivalent is
	// the stream without it.
	want, err := e.Run(stream.Stream{arrivals[0], arrivals[1]}, opts.RunOptions)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := csvOf(t, want), csvOf(t, got.Recognition); a != b {
		t.Fatalf("CSV differs:\n%s\nvs\n%s", b, a)
	}
}

func TestRunStreamCountsDuplicates(t *testing.T) {
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	arrivals := stream.Stream{
		ev(10, "entersArea(v1, a1)"),
		ev(10, "entersArea(v1, a1)"),
		ev(20, "leavesArea(v1, a1)"),
		ev(20, "leavesArea(v1, a1)"),
	}
	got, err := e.RunStream(arrivals, StreamOptions{RunOptions: RunOptions{Window: 5}, MaxDelay: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Duplicates != 2 || got.Stats.Accepted != 2 {
		t.Fatalf("stats = %s", got.Stats)
	}
	checkIntervals(t, got.Recognition, "withinArea(v1, fishing)=true", intervals.List{ivl(11, 21)})
}

func TestRunStreamOptionErrors(t *testing.T) {
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	if _, err := e.RunStream(stream.Stream{ev(1, "gap_start(v1)")}, StreamOptions{MaxDelay: -1}, nil); err == nil {
		t.Fatal("negative max delay accepted")
	}
	if _, err := e.RunStream(stream.Stream{ev(1, "gap_start(v1)")},
		StreamOptions{RunOptions: RunOptions{Window: 5, Slide: 10}}, nil); err == nil {
		t.Fatal("slide > window accepted")
	}
}

func TestRunStreamEmptyStream(t *testing.T) {
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	got, err := e.RunStream(nil, StreamOptions{}, func(WindowResult) error {
		t.Fatal("window delivered for empty stream")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Keys()) != 0 || got.Stats != (StreamStats{}) {
		t.Fatalf("empty stream result = %v, %s", got.Keys(), got.Stats)
	}
}

func TestRunStreamAbortsOnCallbackError(t *testing.T) {
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	events := stream.Stream{
		ev(10, "entersArea(v1, a1)"),
		ev(40, "gap_start(v1)"),
	}
	wantErr := fmt.Errorf("downstream full")
	_, err := e.RunStream(events, StreamOptions{RunOptions: RunOptions{Window: 10}},
		func(WindowResult) error { return wantErr })
	if err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
}

// TestPropBoundedShuffleConverges: any arrival permutation in which no event
// is displaced beyond MaxDelay converges to the same final recognition as
// the in-order run, with nothing dropped.
func TestPropBoundedShuffleConverges(t *testing.T) {
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		events := genRandomStream(r, 500)
		events.Sort()
		maxDelay := int64(r.Intn(120))
		window := int64(20 + r.Intn(300))
		arrivals := boundedShuffle(r, events, maxDelay)

		want, err := e.Run(events, RunOptions{Window: window})
		if err != nil {
			return false
		}
		got, err := e.RunStream(arrivals, StreamOptions{
			RunOptions: RunOptions{Window: window},
			MaxDelay:   maxDelay,
		}, nil)
		if err != nil {
			return false
		}
		if got.Stats.Dropped != 0 {
			t.Logf("seed %d: dropped %d events within bound", seed, got.Stats.Dropped)
			return false
		}
		return csvOf(t, want) == csvOf(t, got.Recognition)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestIngestScansDoNotGrowWithWindowIndex: a long soak must not pay for the
// windows it has already finished with. Over a 20 000-window timeline with a
// late arrival every few windows, the slots the per-arrival scans look at
// (revise's search for the windows containing t, prune's search for the
// first revisable window) stay within a bound set by max-delay / slide,
// whatever the window index — slot visits are counted, not nanoseconds.
func TestIngestScansDoNotGrowWithWindowIndex(t *testing.T) {
	const windows, slide, maxDelay = 20000, 10, 25
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	r, err := e.NewStreamRunner(StreamOptions{
		RunOptions: RunOptions{Window: slide, Start: 0, End: windows * slide},
		MaxDelay:   maxDelay,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// One event per window; every seventh (an entersArea, so its window's
	// recognition changes) arrives after its successor: it is late and lands
	// in an already-emitted window.
	arrivals := make(stream.Stream, 0, windows)
	for i := 0; i < windows; i++ {
		src := "gap_start(v1)"
		if i%7 == 0 {
			src = "entersArea(v1, a1)"
		}
		arrivals = append(arrivals, ev(int64(i*slide+3), src))
	}
	for i := 7; i+1 < len(arrivals); i += 7 {
		arrivals[i], arrivals[i+1] = arrivals[i+1], arrivals[i]
	}
	// maxDelay/slide+1 slots are revisable; each scan may look at one more to
	// find its end, and one arrival can move the frontier over two windows.
	const bound = 2 * (maxDelay/slide + 3)
	st := r.st
	for n, a := range arrivals {
		before := st.slotVisits
		if err := r.Ingest(a); err != nil {
			t.Fatal(err)
		}
		if v := st.slotVisits - before; v > bound {
			t.Fatalf("arrival %d (window %d of %d) made the scans visit %d slots, want at most %d", n, st.emitted, windows, v, bound)
		}
	}
	res, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Late == 0 || res.Stats.Revisions == 0 {
		t.Fatalf("stats %s: the timeline exercised no late arrival or no revision", res.Stats)
	}
}
