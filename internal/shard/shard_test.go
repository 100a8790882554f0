package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"rtecgen/internal/clock"
	"rtecgen/internal/maritime"
	"rtecgen/internal/parser"
	"rtecgen/internal/rtec"
	"rtecgen/internal/stream"
	"rtecgen/internal/telemetry"
	"rtecgen/internal/telemetry/journal"
)

const testED = `
inputEvent(entersArea(_, _)).
inputEvent(leavesArea(_, _)).
inputEvent(gap_start(_)).

areaType(a1, fishing).
areaType(a2, anchorage).

initiatedAt(withinArea(Vl, AreaType)=true, T) :-
    happensAt(entersArea(Vl, AreaID), T),
    areaType(AreaID, AreaType).

terminatedAt(withinArea(Vl, AreaType)=true, T) :-
    happensAt(leavesArea(Vl, AreaID), T),
    areaType(AreaID, AreaType).

terminatedAt(withinArea(Vl, AreaType)=true, T) :-
    happensAt(gap_start(Vl), T).
`

func testEngine(t testing.TB) *rtec.Engine {
	t.Helper()
	return testEngineOpts(t, rtec.Options{Strict: true})
}

func testEngineOpts(t testing.TB, opts rtec.Options) *rtec.Engine {
	t.Helper()
	ed, err := parser.ParseEventDescription(testED)
	if err != nil {
		t.Fatal(err)
	}
	e, err := rtec.New(ed, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// testArrivals builds a deterministic multi-entity stream with bounded
// disorder: six vessels entering and leaving areas over [0, 1000), shuffled
// so no event is displaced by more than maxDelay.
func testArrivals(seed int64, n int, maxDelay int64) stream.Stream {
	r := rand.New(rand.NewSource(seed))
	var events stream.Stream
	for len(events) < n {
		v := fmt.Sprintf("v%d", 1+r.Intn(6))
		a := fmt.Sprintf("a%d", 1+r.Intn(2))
		t := int64(r.Intn(990))
		switch r.Intn(3) {
		case 0:
			events = append(events, ev(t, fmt.Sprintf("entersArea(%s, %s)", v, a)))
		case 1:
			events = append(events, ev(t, fmt.Sprintf("leavesArea(%s, %s)", v, a)))
		default:
			events = append(events, ev(t, fmt.Sprintf("gap_start(%s)", v)))
		}
	}
	events.Sort()
	// Bounded shuffle: order by randomly delayed delivery time.
	type delayed struct {
		e   stream.Event
		due int64
		idx int
	}
	ds := make([]delayed, len(events))
	for i, e := range events {
		ds[i] = delayed{e: e, due: e.Time + r.Int63n(maxDelay+1), idx: i}
	}
	sort.SliceStable(ds, func(i, j int) bool {
		if ds[i].due != ds[j].due {
			return ds[i].due < ds[j].due
		}
		return ds[i].idx < ds[j].idx
	})
	out := make(stream.Stream, len(ds))
	for i, d := range ds {
		out[i] = d.e
	}
	return out
}

func ev(t int64, src string) stream.Event {
	return stream.Event{Time: t, Atom: parser.MustParseTerm(src)}
}

func csvOf(t testing.TB, r *rtec.Recognition) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// supervisedRun is one complete supervised run plus everything the tests
// compare: the result, the engine's committed journal, the supervisor's own
// event journal, and the metrics registry.
type supervisedRun struct {
	res     *Result
	journal *bytes.Buffer
	events  *bytes.Buffer
	reg     *telemetry.Registry
}

// crash is one engine failure raised from the OnWindow observer: at the
// first-time delivery of its window-th window (1-based, identified by the
// window's query time) the engine panics, and the supervisor restarts it
// from its checkpoint. tear first cuts the checkpoint file "<base>.s0" to
// half its size, so the restart must fall back to the previous generation.
// A crash fires once, or on every attempt when every is set.
type crash struct {
	window int
	every  bool
	tear   bool
}

// panicAt is a crash that fires once, at the window-th delivery.
func panicAt(window int) crash { return crash{window: window} }

// crashObserver is the OnWindow observer that acts out crashes on the
// tumbling time-line of opts. The fire-once latches live in the closure,
// outside the engine, so a restarted engine replays past a crash that has
// fired instead of dying again.
func crashObserver(opts Options, crashes []crash) func(int, rtec.WindowResult) {
	ro := opts.Stream.RunOptions
	var mu sync.Mutex
	fired := map[int]bool{} // by crash index
	return func(_ int, wr rtec.WindowResult) {
		if wr.Revision != 0 {
			return
		}
		for i, c := range crashes {
			if wr.QueryTime != min(ro.Start+int64(c.window)*ro.Window, ro.End) {
				continue
			}
			mu.Lock()
			again := fired[i]
			fired[i] = true
			mu.Unlock()
			if again && !c.every {
				continue
			}
			if c.tear && opts.Stream.CheckpointPath != "" {
				tearFile(opts.Stream.CheckpointPath + ".s0")
			}
			panic(fmt.Sprintf("injected panic at window %d", c.window))
		}
	}
}

// tearFile cuts an existing file to half its size: a torn checkpoint write.
func tearFile(path string) {
	fi, err := os.Stat(path)
	if err != nil {
		return // nothing checkpointed yet
	}
	if err := os.Truncate(path, fi.Size()/2); err != nil {
		panic(err)
	}
}

// runSupervised builds a supervisor over a fresh engine, feeds the arrivals
// and closes. tweak edits the options before construction; the crashes
// then act out through the observer.
func runSupervised(t testing.TB, eng *rtec.Engine, arrivals stream.Stream, crashes []crash, tweak func(*Options)) (*supervisedRun, error) {
	t.Helper()
	first, last := arrivals.TimeRange()
	reg := telemetry.NewRegistry()
	jour, events := &bytes.Buffer{}, &bytes.Buffer{}
	opts := Options{
		Events: journal.NewWriter(events, journal.Options{}),
		Stream: rtec.StreamOptions{
			RunOptions:      rtec.RunOptions{Window: 100, Start: first, End: last + 1},
			MaxDelay:        60,
			CheckpointPath:  filepath.Join(t.TempDir(), "run.ckpt"),
			CheckpointEvery: 1,
		},
		JournalFor:  func(int) io.Writer { return jour },
		Seed:        7,
		MaxRestarts: 8,
		Telemetry:   telemetry.New(reg, nil, nil),
	}
	if tweak != nil {
		tweak(&opts)
	}
	if crashes != nil {
		opts.OnWindow = crashObserver(opts, crashes)
	}
	sup, err := NewSupervisor(eng, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range arrivals {
		if err := sup.Ingest(e); err != nil {
			return nil, err
		}
	}
	res, err := sup.Close()
	if err != nil {
		return nil, err
	}
	return &supervisedRun{res: res, journal: jour, events: events, reg: reg}, nil
}

// restartReasons returns the reason of every shard_restart record in the
// supervisor's event journal, in order.
func restartReasons(t testing.TB, run *supervisedRun) []string {
	t.Helper()
	recs, err := journal.Read(bytes.NewReader(run.events.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, rec := range recs {
		if rec.Type != "shard_restart" {
			continue
		}
		var ev shardRestartEvent
		if err := json.Unmarshal(rec.Data, &ev); err != nil {
			t.Fatal(err)
		}
		out = append(out, ev.Reason)
	}
	return out
}

func counterValue(reg *telemetry.Registry, name string) int64 {
	return reg.Snapshot().Counters[name]
}

// requireIdentical asserts the chaos contract: same recognised intervals,
// same journal bytes, same statistics.
func requireIdentical(t *testing.T, want, got *supervisedRun) {
	t.Helper()
	if a, b := csvOf(t, want.res.Recognition), csvOf(t, got.res.Recognition); a != b {
		t.Fatalf("recognised intervals differ under faults:\n%s\nvs fault-free\n%s", b, a)
	}
	if want.res.Stats != got.res.Stats {
		t.Fatalf("stats differ under faults: %+v vs %+v", got.res.Stats, want.res.Stats)
	}
	if !bytes.Equal(want.journal.Bytes(), got.journal.Bytes()) {
		t.Fatalf("journal differs under faults:\n%s\nvs fault-free\n%s", got.journal, want.journal)
	}
}

// TestShardRestartByteIdentity is the supervisor's acceptance gate: a seeded
// panic at the 2nd window forces a restart mid-stream, and the
// recovered run must be byte-identical to the fault-free one — intervals,
// stats and journals. It runs at both values of the engine's Workers option
// that callers still set; the option is accepted and ignored, so neither may
// change a byte.
func TestShardRestartByteIdentity(t *testing.T) {
	arrivals := testArrivals(7, 120, 60)
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opts := rtec.Options{Strict: true, Workers: workers}
			want, err := runSupervised(t, testEngineOpts(t, opts), arrivals, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := runSupervised(t, testEngineOpts(t, opts), arrivals, []crash{panicAt(2)}, nil)
			if err != nil {
				t.Fatal(err)
			}
			var restarts int64
			for _, st := range got.res.Shards {
				restarts += st.Restarts
			}
			if restarts == 0 {
				t.Fatal("the engine never restarted — the fault never fired")
			}
			if v := counterValue(got.reg, "rtec.shard.restarts"); v != restarts {
				t.Fatalf("rtec.shard.restarts = %d, statuses say %d", v, restarts)
			}
			reasons := restartReasons(t, got)
			if int64(len(reasons)) != restarts {
				t.Fatalf("%d shard_restart records, statuses say %d restarts", len(reasons), restarts)
			}
			for _, r := range reasons {
				if !strings.Contains(r, "panicked: injected panic at window 2") {
					t.Fatalf("shard_restart reason %q does not name the caught panic", r)
				}
			}
			requireIdentical(t, want, got)
		})
	}
}

// TestShardRestartWithoutCheckpoints: with checkpointing off, a restarted
// engine replays the whole retained queue from scratch — and the output is
// still byte-identical.
func TestShardRestartWithoutCheckpoints(t *testing.T) {
	arrivals := testArrivals(11, 80, 60)
	noCkpt := func(o *Options) { o.Stream.CheckpointPath = "" }
	want, err := runSupervised(t, testEngine(t), arrivals, nil, noCkpt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runSupervised(t, testEngine(t), arrivals, []crash{panicAt(2)}, noCkpt)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, want, got)
}

// TestShardCheckpointGenerationFallback: a panic at window 3's delivery
// restarts the engine from the checkpoint that covers window 2. That
// generation may still have been in flight when window 3 was delivered; the
// aborted attempt waited for it, so the restart loaded it from disk. Tearing
// it at window 3's re-delivery and panicking again forces the next restart
// onto the previous generation; the longer replay must still land on
// identical bytes. The maritime input is the gold event description over the
// 14-vessel seed-7 scenario, shuffled at max-delay 900 with a duplicate every
// 50 events: its windows are the ones rtecd serves.
func TestShardCheckpointGenerationFallback(t *testing.T) {
	chaos := []crash{{window: 3}, {window: 3, tear: true}}
	t.Run("synthetic", func(t *testing.T) {
		arrivals := testArrivals(7, 120, 60)
		want, err := runSupervised(t, testEngine(t), arrivals, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := runSupervised(t, testEngine(t), arrivals, chaos, nil)
		if err != nil {
			t.Fatal(err)
		}
		if counterValue(got.reg, "rtec.checkpoint.fallbacks") == 0 {
			t.Fatal("no restart used the previous checkpoint generation")
		}
		requireIdentical(t, want, got)
	})
	t.Run("maritime", func(t *testing.T) {
		eng, arrivals := maritimeInput(t)
		first, last := arrivals.TimeRange()
		geometry := func(o *Options) {
			o.Stream.RunOptions = rtec.RunOptions{Window: 3600, Start: first, End: last + 1}
			o.Stream.MaxDelay = 900
		}
		want, err := runSupervised(t, eng, arrivals, nil, geometry)
		if err != nil {
			t.Fatal(err)
		}
		got, err := runSupervised(t, eng, arrivals, chaos, geometry)
		if err != nil {
			t.Fatal(err)
		}
		if counterValue(got.reg, "rtec.shard.restarts") == 0 {
			t.Fatal("the engine never restarted: the faults never fired")
		}
		if len(restartReasons(t, got)) == 0 {
			t.Fatal("the supervisor journal has no shard_restart record")
		}
		requireIdentical(t, want, got)
	})
}

// TestShardCheckpointWriteFailureCommitsOnlyDurable: a checkpoint write that
// fails behind the consumer — here because the checkpoint directory is gone —
// fails the attempt at the next cadence point, before that cadence's
// generation-lagged commit, so the journal is committed through the last
// generation that reached the disk and no further. A panic at window 3's
// delivery restarts the engine from the generation covering window 2; the
// aborted attempt waited for it, so no write is in flight when the
// directory is removed at the re-delivery. The restart's first generation
// then fails, the next cadence point reports it, and the engine, unable to
// load any checkpoint, degrades.
func TestShardCheckpointWriteFailureCommitsOnlyDurable(t *testing.T) {
	arrivals := testArrivals(7, 120, 60)
	first, last := arrivals.TimeRange()
	q3 := min(first+3*100, last+1)
	run := func(dir string, observer func(int, rtec.WindowResult)) (*bytes.Buffer, *bytes.Buffer, error) {
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		var shardJournal, events bytes.Buffer
		sup, err := NewSupervisor(testEngine(t), Options{
			Events: journal.NewWriter(&events, journal.Options{}),
			Stream: rtec.StreamOptions{
				RunOptions:      rtec.RunOptions{Window: 100, Start: first, End: last + 1},
				MaxDelay:        60,
				CheckpointPath:  filepath.Join(dir, "run.ckpt"),
				CheckpointEvery: 1,
			},
			JournalFor:  func(int) io.Writer { return &shardJournal },
			OnWindow:    observer,
			Seed:        7,
			MaxRestarts: 8,
			Clock:       clock.NewVirtual(time.Unix(0, 0)),
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range arrivals {
			if sup.Ingest(e) != nil {
				break // the engine degraded
			}
		}
		_, err = sup.Close()
		return &shardJournal, &events, err
	}

	clean, _, err := run(filepath.Join(t.TempDir(), "ck"), nil)
	if err != nil {
		t.Fatal(err)
	}
	// The generation covering window 2 is the last checkpoint the clean run
	// journalled before window 3's delivery; the commit may reach it, since it
	// is on disk, and nothing after it.
	recs, err := journal.Read(bytes.NewReader(clean.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(clean.Bytes(), []byte("\n"))
	durable := -1
	for i, rec := range recs {
		var w struct {
			QueryTime int64 `json:"query_time"`
		}
		if rec.Type == "window" && json.Unmarshal(rec.Data, &w) == nil && w.QueryTime == q3 {
			break
		}
		if rec.Type == "checkpoint" {
			durable = i
		}
	}
	if durable < 0 {
		t.Fatal("the clean run wrote no checkpoint before window 3")
	}
	want := bytes.Join(lines[:durable+1], nil)

	dir := filepath.Join(t.TempDir(), "ck")
	delivered := 0
	got, events, err := run(dir, func(_ int, wr rtec.WindowResult) {
		if wr.Revision != 0 || wr.QueryTime != q3 {
			return
		}
		delivered++
		switch delivered {
		case 1:
			panic("injected panic at window 3")
		case 2:
			if err := os.RemoveAll(dir); err != nil {
				panic(err)
			}
		}
	})
	if err == nil || !strings.Contains(err.Error(), "degraded") {
		t.Fatalf("Close err = %v, want the degraded engine", err)
	}
	if delivered < 2 {
		t.Fatalf("window 3 delivered %d times: the checkpoint directory was never removed", delivered)
	}
	var writeFailed bool
	for _, r := range restartReasons(t, &supervisedRun{events: events}) {
		writeFailed = writeFailed || strings.Contains(r, "rtec: checkpoint: ")
	}
	if !writeFailed {
		t.Fatalf("no restart names the failed checkpoint write:\n%s", events.Bytes())
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("the engine committed past its last durable generation:\n have %s\n want %s", got.Bytes(), want)
	}
}

// maritimeInput is the engine over the gold maritime event description and
// background knowledge of the 14-vessel seed-7 scenario (AIS every 60 s),
// and that scenario's events in the arrival order of a bounded shuffle at
// max-delay 900, seed 13, with a duplicate every 50 events.
func maritimeInput(t *testing.T) (*rtec.Engine, stream.Stream) {
	t.Helper()
	scen, err := maritime.BuildScenario(maritime.ScenarioConfig{Vessels: 14, Seed: 7, IntervalSec: 60})
	if err != nil {
		t.Fatal(err)
	}
	evs := stream.Stream(maritime.Preprocess(scen.Messages, scen.Map, maritime.DefaultPreprocessConfig()))
	var src strings.Builder
	src.WriteString(maritime.GoldSource())
	for _, c := range maritime.BackgroundClauses(scen.Map, scen.Fleet, maritime.ObservedPairs(evs)) {
		fmt.Fprintln(&src, c)
	}
	for _, fact := range maritime.DynamicFacts(evs, scen.Fleet) {
		fmt.Fprintf(&src, "%s.\n", fact)
	}
	ed, err := parser.ParseEventDescription(src.String())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := rtec.New(ed, rtec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	evs.Sort()
	arrivals, _, _ := stream.Perturb(evs, rand.New(rand.NewSource(13)), 900, 50)
	return eng, arrivals
}

// TestShardPanicUnblocksProducer: with a tiny queue the producer blocks on
// the full backlog, and the engine panics at its first window. The
// restarted consumer's own progress must wake the blocked Ingest — nothing
// polls on its behalf — and the run must stay byte-identical.
func TestShardPanicUnblocksProducer(t *testing.T) {
	arrivals := testArrivals(7, 120, 60)
	tweak := func(o *Options) {
		o.Clock = clock.NewVirtual(time.Unix(0, 0))
		o.QueueDepth = 2
	}
	want, err := runSupervised(t, testEngine(t), arrivals, nil, tweak)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runSupervised(t, testEngine(t), arrivals, []crash{panicAt(1)}, tweak)
	if err != nil {
		t.Fatal(err)
	}
	if counterValue(got.reg, "rtec.shard.restarts") == 0 {
		t.Fatal("the engine never restarted: the panic never fired")
	}
	requireIdentical(t, want, got)
}

// TestShardDegradationAndHealth: an engine that panics on every attempt
// exhausts its restart budget and degrades instead of wedging the run: the
// arrivals after it are refused with ErrDegraded, Close fails the run while
// still returning the Result that says why, and Health — rtecd's "shards"
// readiness check — fails naming the engine.
func TestShardDegradationAndHealth(t *testing.T) {
	arrivals := testArrivals(7, 120, 60)
	sup := mustSupervisor(t, arrivals, []crash{{window: 1, every: true}}, func(o *Options) {
		o.MaxRestarts = 2
	})
	if err := sup.Health(); err != nil {
		t.Fatalf("Health() = %v before any fault", err)
	}
	for _, e := range arrivals {
		if err := sup.Ingest(e); err != nil && !errors.Is(err, ErrDegraded) {
			t.Fatal(err)
		}
	}
	res, err := sup.Close()
	if err == nil || !strings.Contains(err.Error(), "shard 0 degraded") {
		t.Fatalf("Close after a degradation: err = %v, want one naming shard 0", err)
	}
	if res.Degraded != 1 {
		t.Fatalf("degraded = %d, want 1: %+v", res.Degraded, res.Shards)
	}
	st := res.Shards[0]
	if !st.Degraded || st.Err == "" || st.Restarts != 2 {
		t.Fatalf("shard 0 status %+v, want degraded after 2 restarts", st)
	}
	// A degraded run has no recognition to return: there is no healthy
	// part of it.
	if res.Recognition != nil {
		t.Fatal("a degraded run returned a recognition")
	}

	// rtecd's /healthz reports this error as its "shards" check.
	if err := sup.Health(); err == nil || err.Error() != "degraded shards: [0]" {
		t.Fatalf("Health() = %v with a degraded engine, want \"degraded shards: [0]\"", err)
	}
}

// TestShardOverflowOnDegraded pins the one admission verdict against a dead
// engine: Ingest refuses with ErrDegraded instead of blocking forever, and
// Close fails the run but still returns the partial Result. The subtest is
// named for the queue's admission policy: the queue only blocks.
func TestShardOverflowOnDegraded(t *testing.T) {
	t.Run("block", func(t *testing.T) {
		arrivals := testArrivals(7, 40, 60)
		sup := mustSupervisor(t, arrivals, nil, nil)
		sup.p.degrade(fmt.Errorf("forced by test"), true)
		if err := sup.Ingest(ev(5, "entersArea(v1, a1)")); !errors.Is(err, ErrDegraded) {
			t.Fatalf("Ingest to a degraded engine: err = %v, want ErrDegraded", err)
		}
		res, err := sup.Close()
		if err == nil {
			t.Fatal("Close did not report the degraded engine")
		}
		if res == nil || res.Degraded != 1 || !res.Shards[0].Degraded {
			t.Fatalf("Close returned no partial Result reporting the degradation: %+v", res)
		}
	})
}

func mustSupervisor(t *testing.T, arrivals stream.Stream, crashes []crash, tweak func(*Options)) *Supervisor {
	t.Helper()
	first, last := arrivals.TimeRange()
	opts := Options{
		Stream: rtec.StreamOptions{
			RunOptions:      rtec.RunOptions{Window: 100, Start: first, End: last + 1},
			MaxDelay:        60,
			CheckpointPath:  filepath.Join(t.TempDir(), "run.ckpt"),
			CheckpointEvery: 1,
		},
		Seed: 7,
	}
	if tweak != nil {
		tweak(&opts)
	}
	if crashes != nil {
		opts.OnWindow = crashObserver(opts, crashes)
	}
	sup, err := NewSupervisor(testEngine(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	return sup
}

func TestSupervisorLifecycleErrors(t *testing.T) {
	arrivals := testArrivals(7, 10, 60)
	sup := mustSupervisor(t, arrivals, nil, nil)
	if _, err := sup.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sup.Ingest(ev(1, "entersArea(v1, a1)")); err == nil {
		t.Fatal("Ingest after Close accepted")
	}
	if _, err := sup.Close(); err == nil {
		t.Fatal("second Close accepted")
	}
	if _, err := NewSupervisor(testEngine(t), Options{}); err == nil {
		t.Fatal("supervisor planned without explicit bounds")
	}
}

// TestSeedForDistinct: distinct names get distinct backoff seeds, and the
// same run seed gives a name the same one.
func TestSeedForDistinct(t *testing.T) {
	a, b := seedFor(7, "shard-0"), seedFor(7, "shard-1")
	if a == b {
		t.Fatal("seeds of distinct names collide")
	}
	if a != seedFor(7, "shard-0") {
		t.Fatal("seed not deterministic")
	}
}

// FuzzShardFaultSchedule drives the supervisor with arbitrary fault
// schedules. The invariant: any run that completes without degradation is
// byte-identical to the fault-free run over the same stream.
func FuzzShardFaultSchedule(f *testing.F) {
	f.Add([]byte{0, 1, 0})          // panic at window 2
	f.Add([]byte{1, 0, 1})          // tear and panic at window 1
	f.Add([]byte{1, 1, 0, 0, 2, 0}) // tear and panic at 2, then panic at 3
	f.Add([]byte{0, 0, 0x80})       // panic at window 1 on every attempt
	f.Add([]byte{})                 // no fault
	arrivals := testArrivals(7, 40, 60)
	tweak := func(o *Options) {
		o.Clock = clock.NewVirtual(time.Unix(0, 0))
		o.MaxRestarts = 6
	}
	f.Fuzz(func(t *testing.T, schedule []byte) {
		want, err := runSupervised(t, testEngine(t), arrivals, nil, tweak)
		if err != nil {
			t.Fatalf("fault-free run failed: %v", err)
		}
		got, err := runSupervised(t, testEngine(t), arrivals, decodeSchedule(schedule), tweak)
		if err != nil {
			return // the schedule exhausted the restart budget; no identity promised
		}
		requireIdentical(t, want, got)
	})
}

// decodeSchedule reads a fuzzed fault schedule three bytes per crash: the
// kind (panic, or tear the checkpoint and panic), the window (1–4), and the
// scope, whose high bit makes the crash fire on every attempt; its low seven
// bits are ignored.
func decodeSchedule(b []byte) []crash {
	cs := []crash{}
	for ; len(b) >= 3; b = b[3:] {
		cs = append(cs, crash{
			tear:   b[0]%2 == 1,
			window: int(b[1]%4) + 1,
			every:  b[2]&0x80 != 0,
		})
	}
	return cs
}
