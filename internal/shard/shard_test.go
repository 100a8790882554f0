package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"rtecgen/internal/clock"
	"rtecgen/internal/maritime"
	"rtecgen/internal/parser"
	"rtecgen/internal/rtec"
	"rtecgen/internal/shard/fault"
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

func testEngine(t testing.TB, workers int) *rtec.Engine {
	t.Helper()
	ed, err := parser.ParseEventDescription(testED)
	if err != nil {
		t.Fatal(err)
	}
	e, err := rtec.New(ed, rtec.Options{Strict: true, Workers: workers})
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

// shardedRun is one complete supervised run plus everything the tests
// compare: the merged result, every shard's committed journal, the
// supervisor's own event journal, and the metrics registry.
type shardedRun struct {
	res      *Result
	journals []*bytes.Buffer
	events   *bytes.Buffer
	reg      *telemetry.Registry
}

// faults builds a fault schedule from its triggers.
func faults(ts ...fault.Trigger) *fault.Plan { return &fault.Plan{Triggers: ts} }

// everyShard is a fault each shard acts out once, at its window-th delivery.
func everyShard(kind fault.Kind, window int) fault.Trigger {
	return fault.Trigger{Kind: kind, Window: window, Shard: fault.AllShards}
}

// runSharded builds a supervisor over a fresh engine, feeds the arrivals
// and closes. tweak edits the options before construction.
func runSharded(t testing.TB, eng *rtec.Engine, arrivals stream.Stream, plan *fault.Plan, tweak func(*Options)) (*shardedRun, error) {
	t.Helper()
	first, last := arrivals.TimeRange()
	reg := telemetry.NewRegistry()
	journals := make([]*bytes.Buffer, 4)
	for i := range journals {
		journals[i] = &bytes.Buffer{}
	}
	events := &bytes.Buffer{}
	opts := Options{
		Shards: 4,
		Events: journal.NewWriter(events, journal.Options{}),
		Stream: rtec.StreamOptions{
			RunOptions:      rtec.RunOptions{Window: 100, Start: first, End: last + 1},
			MaxDelay:        60,
			CheckpointPath:  filepath.Join(t.TempDir(), "run.ckpt"),
			CheckpointEvery: 1,
		},
		JournalFor:  func(k int) io.Writer { return journals[k] },
		Seed:        7,
		Faults:      plan,
		MaxRestarts: 8,
		Telemetry:   telemetry.New(reg, nil, nil),
	}
	if tweak != nil {
		tweak(&opts)
	}
	if opts.Shards != len(journals) {
		journals = journals[:opts.Shards]
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
	return &shardedRun{res: res, journals: journals, events: events, reg: reg}, nil
}

// restartReasons returns the reason of every shard_restart record in the
// supervisor's event journal, in order.
func restartReasons(t testing.TB, run *shardedRun) []string {
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
// same per-shard journal bytes, same aggregate statistics.
func requireIdentical(t *testing.T, want, got *shardedRun) {
	t.Helper()
	if a, b := csvOf(t, want.res.Recognition), csvOf(t, got.res.Recognition); a != b {
		t.Fatalf("recognised intervals differ under faults:\n%s\nvs fault-free\n%s", b, a)
	}
	if want.res.Stats != got.res.Stats {
		t.Fatalf("stats differ under faults: %s vs %s", got.res.Stats, want.res.Stats)
	}
	for k := range want.journals {
		if !bytes.Equal(want.journals[k].Bytes(), got.journals[k].Bytes()) {
			t.Fatalf("shard %d journal differs under faults:\n%s\nvs fault-free\n%s",
				k, got.journals[k].String(), want.journals[k].String())
		}
	}
}

// TestShardedMatchesUnsharded: partitioning a stream across supervised
// shards and merging recognises exactly what one engine over the whole
// stream does.
func TestShardedMatchesUnsharded(t *testing.T) {
	arrivals := testArrivals(7, 120, 60)
	first, last := arrivals.TimeRange()
	e := testEngine(t, 1)
	want, err := e.RunStream(arrivals, rtec.StreamOptions{
		RunOptions: rtec.RunOptions{Window: 100, Start: first, End: last + 1},
		MaxDelay:   60,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runSharded(t, testEngine(t, 1), arrivals, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := csvOf(t, want.Recognition), csvOf(t, got.res.Recognition); a != b {
		t.Fatalf("sharded merge differs from unsharded run:\n%s\nvs\n%s", b, a)
	}
	if got.res.Stats.Observed != int64(len(arrivals)) {
		t.Fatalf("shards observed %d arrivals, want %d", got.res.Stats.Observed, len(arrivals))
	}
	// Every shard saw some of the six entities.
	for _, st := range got.res.Shards {
		if st.Consumed == 0 {
			t.Fatalf("shard %d consumed nothing — entity routing premise broken", st.Shard)
		}
	}
}

// TestShardRestartByteIdentity is the tentpole acceptance gate: a seeded
// panic at every shard's 2nd window forces restarts mid-stream, and the
// recovered run must be byte-identical to the fault-free one — intervals,
// stats and journals. Exercised at engine Workers=1 and 8 (the latter makes
// the in-window evaluation concurrent under -race).
func TestShardRestartByteIdentity(t *testing.T) {
	arrivals := testArrivals(7, 120, 60)
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			want, err := runSharded(t, testEngine(t, workers), arrivals, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := runSharded(t, testEngine(t, workers), arrivals, faults(everyShard(fault.Panic, 2)), nil)
			if err != nil {
				t.Fatal(err)
			}
			var restarts int64
			for _, st := range got.res.Shards {
				restarts += st.Restarts
			}
			if restarts == 0 {
				t.Fatal("no shard restarted — the fault never fired")
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
// shard replays the whole retained queue from scratch — and the output is
// still byte-identical.
func TestShardRestartWithoutCheckpoints(t *testing.T) {
	arrivals := testArrivals(11, 80, 60)
	noCkpt := func(o *Options) { o.Stream.CheckpointPath = "" }
	want, err := runSharded(t, testEngine(t, 1), arrivals, nil, noCkpt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runSharded(t, testEngine(t, 1), arrivals, faults(everyShard(fault.Panic, 2)), noCkpt)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, want, got)
}

// TestShardCheckpointGenerationFallback: tearing the freshly written
// checkpoint before a panic forces the restart onto the previous
// generation; the longer replay must still land on identical bytes. The
// maritime input is the gold event description over the 14-vessel seed-7
// scenario, shuffled at max-delay 900 with a duplicate every 50 events: its
// relational fluents span shards, and its windows are the ones rtecd serves.
func TestShardCheckpointGenerationFallback(t *testing.T) {
	chaos := faults(everyShard(fault.Truncate, 2), everyShard(fault.Panic, 3))
	t.Run("synthetic", func(t *testing.T) {
		arrivals := testArrivals(7, 120, 60)
		want, err := runSharded(t, testEngine(t, 1), arrivals, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := runSharded(t, testEngine(t, 1), arrivals, chaos, nil)
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
		want, err := runSharded(t, eng, arrivals, nil, geometry)
		if err != nil {
			t.Fatal(err)
		}
		got, err := runSharded(t, eng, arrivals, chaos, geometry)
		if err != nil {
			t.Fatal(err)
		}
		if counterValue(got.reg, "rtec.shard.restarts") == 0 {
			t.Fatal("no shard restarted: the faults never fired")
		}
		if len(restartReasons(t, got)) == 0 {
			t.Fatal("the supervisor journal has no shard_restart record")
		}
		requireIdentical(t, want, got)
	})
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
	eng, err := rtec.New(ed, rtec.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	evs.Sort()
	arrivals, _, _ := stream.Perturb(evs, rand.New(rand.NewSource(13)), 900, 50)
	return eng, arrivals
}

// TestShardPanicUnblocksProducer: with a tiny queue the producer blocks on
// every shard's full backlog, and each shard panics at its first window. The
// restarted consumer's own progress must wake the blocked Ingest — nothing
// polls on its behalf — and the run must stay byte-identical.
func TestShardPanicUnblocksProducer(t *testing.T) {
	arrivals := testArrivals(7, 120, 60)
	tweak := func(o *Options) {
		o.Clock = clock.NewVirtual(time.Unix(0, 0))
		o.QueueDepth = 2
	}
	want, err := runSharded(t, testEngine(t, 1), arrivals, nil, tweak)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runSharded(t, testEngine(t, 1), arrivals, faults(everyShard(fault.Panic, 1)), tweak)
	if err != nil {
		t.Fatal(err)
	}
	if counterValue(got.reg, "rtec.shard.restarts") == 0 {
		t.Fatal("no shard restarted: the panics never fired")
	}
	requireIdentical(t, want, got)
}

// TestShardDegradationAndHealth: a shard that panics on every attempt
// exhausts its restart budget and degrades instead of wedging the run: the
// arrivals routed to it are refused with ErrDegraded, the other shards run
// on, Close fails the run while still returning the healthy shards' merge,
// and /healthz answers 503 with the shards check failing.
func TestShardDegradationAndHealth(t *testing.T) {
	arrivals := testArrivals(7, 120, 60)
	sup := mustSupervisor(t, arrivals, faults(fault.Trigger{Kind: fault.Panic, Window: 1, Shard: 0, Every: true}), func(o *Options) {
		o.MaxRestarts = 2
	})
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
	// The healthy shards' intervals survive in the partial merge.
	if len(res.Recognition.Keys()) == 0 {
		t.Fatal("partial merge lost the healthy shards' intervals")
	}

	reg := telemetry.NewRegistry()
	srv := telemetry.NewServer(reg)
	sup.RegisterHealth(srv)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 {
		t.Fatalf("/healthz = %d with a degraded shard, want 503", rec.Code)
	}
	if body := rec.Body.String(); !bytes.Contains([]byte(body), []byte("degraded shards: [0]")) {
		t.Fatalf("/healthz body does not name the degraded shard: %s", body)
	}
}

// TestShardOverflowOnDegraded pins the one admission verdict against a dead
// shard: Ingest refuses with ErrDegraded instead of blocking forever, and
// Close fails the run but still returns the partial Result. The subtest is
// named for the queue's admission policy: a shard queue only blocks.
func TestShardOverflowOnDegraded(t *testing.T) {
	t.Run("block", func(t *testing.T) {
		arrivals := testArrivals(7, 40, 60)
		sup := mustSupervisor(t, arrivals, nil, func(o *Options) { o.Shards = 1 })
		sup.procs[0].degrade(fmt.Errorf("forced by test"), true)
		if err := sup.Ingest(ev(5, "entersArea(v1, a1)")); !errors.Is(err, ErrDegraded) {
			t.Fatalf("Ingest to a degraded shard: err = %v, want ErrDegraded", err)
		}
		res, err := sup.Close()
		if err == nil {
			t.Fatal("Close did not report the degraded shard")
		}
		if res == nil || res.Degraded != 1 || !res.Shards[0].Degraded {
			t.Fatalf("Close returned no partial Result reporting the degradation: %+v", res)
		}
	})
}

func mustSupervisor(t *testing.T, arrivals stream.Stream, plan *fault.Plan, tweak func(*Options)) *Supervisor {
	t.Helper()
	first, last := arrivals.TimeRange()
	opts := Options{
		Shards: 4,
		Stream: rtec.StreamOptions{
			RunOptions:      rtec.RunOptions{Window: 100, Start: first, End: last + 1},
			MaxDelay:        60,
			CheckpointPath:  filepath.Join(t.TempDir(), "run.ckpt"),
			CheckpointEvery: 1,
		},
		Seed:   7,
		Faults: plan,
	}
	if tweak != nil {
		tweak(&opts)
	}
	sup, err := NewSupervisor(testEngine(t, 1), opts)
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
	if _, err := NewSupervisor(testEngine(t, 1), Options{Shards: 2}); err == nil {
		t.Fatal("supervisor planned without explicit bounds")
	}
}

// FuzzShardFaultSchedule drives the supervisor with arbitrary fault
// schedules. The invariant: any run that completes without degradation is
// byte-identical to the fault-free run over the same stream.
func FuzzShardFaultSchedule(f *testing.F) {
	f.Add([]byte{0, 1, 0}, uint8(4))          // panic at window 2, every shard
	f.Add([]byte{1, 0, 1}, uint8(2))          // truncate at window 1, shard 0
	f.Add([]byte{1, 1, 0, 0, 2, 0}, uint8(1)) // truncate at 2, then panic at 3
	f.Add([]byte{0, 0, 0x80}, uint8(3))       // panic at window 1 on every attempt
	f.Add([]byte{}, uint8(4))                 // no fault
	arrivals := testArrivals(7, 40, 60)
	f.Fuzz(func(t *testing.T, schedule []byte, shards uint8) {
		n := int(shards%4) + 1
		tweak := func(o *Options) {
			o.Shards = n
			o.Clock = clock.NewVirtual(time.Unix(0, 0))
			o.MaxRestarts = 6
		}
		want, err := runSharded(t, testEngine(t, 1), arrivals, nil, tweak)
		if err != nil {
			t.Fatalf("fault-free run failed: %v", err)
		}
		got, err := runSharded(t, testEngine(t, 1), arrivals, decodeSchedule(schedule), tweak)
		if err != nil {
			return // the schedule exhausted a shard; no identity promised
		}
		requireIdentical(t, want, got)
	})
}

// decodeSchedule reads a fuzzed fault schedule three bytes per trigger: the
// kind (panic, truncate), the window (1–4), and the scope (low seven
// bits: every shard or shard 0–3) with the high bit making it fire on every
// delivery.
func decodeSchedule(b []byte) *fault.Plan {
	p := &fault.Plan{}
	for ; len(b) >= 3; b = b[3:] {
		p.Triggers = append(p.Triggers, fault.Trigger{
			Kind:   fault.Kind(b[0]%2) + fault.Panic,
			Window: int(b[1]%4) + 1,
			Shard:  int(b[2]&0x7f)%5 + fault.AllShards,
			Every:  b[2]&0x80 != 0,
		})
	}
	return p
}
