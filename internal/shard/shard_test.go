package shard

import (
	"bytes"
	"encoding/json"
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

// runSharded builds a supervisor over a fresh engine, feeds the arrivals
// and closes. tweak edits the options before construction.
func runSharded(t testing.TB, workers int, arrivals stream.Stream, faults string, tweak func(*Options)) (*shardedRun, error) {
	t.Helper()
	plan, err := fault.Parse(faults)
	if err != nil {
		t.Fatal(err)
	}
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
	sup, err := NewSupervisor(testEngine(t, workers), opts)
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
	got, err := runSharded(t, 1, arrivals, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := csvOf(t, want.Recognition), csvOf(t, got.res.Recognition); a != b {
		t.Fatalf("sharded merge differs from unsharded run:\n%s\nvs\n%s", b, a)
	}
	if got.res.Stats.Observed != int64(len(arrivals)) {
		t.Fatalf("shards observed %d arrivals, want %d", got.res.Stats.Observed, len(arrivals))
	}
	if got.res.Degraded != 0 {
		t.Fatalf("fault-free run degraded %d shards", got.res.Degraded)
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
			want, err := runSharded(t, workers, arrivals, "", nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := runSharded(t, workers, arrivals, "panic@w2", nil)
			if err != nil {
				t.Fatal(err)
			}
			if got.res.Degraded != 0 {
				t.Fatalf("restarts degraded %d shards: %+v", got.res.Degraded, got.res.Shards)
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
	want, err := runSharded(t, 1, arrivals, "", noCkpt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runSharded(t, 1, arrivals, "panic@w2", noCkpt)
	if err != nil {
		t.Fatal(err)
	}
	if got.res.Degraded != 0 {
		t.Fatalf("degraded %d shards: %+v", got.res.Degraded, got.res.Shards)
	}
	requireIdentical(t, want, got)
}

// TestShardCheckpointGenerationFallback: tearing the freshly written
// checkpoint before a panic forces the restart onto the previous
// generation; the longer replay must still land on identical bytes.
func TestShardCheckpointGenerationFallback(t *testing.T) {
	arrivals := testArrivals(7, 120, 60)
	want, err := runSharded(t, 1, arrivals, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runSharded(t, 1, arrivals, "ckpt-truncate@w2,panic@w3", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.res.Degraded != 0 {
		t.Fatalf("degraded %d shards: %+v", got.res.Degraded, got.res.Shards)
	}
	if counterValue(got.reg, "rtec.checkpoint.fallbacks") == 0 {
		t.Fatal("no restart used the previous checkpoint generation")
	}
	requireIdentical(t, want, got)
}

// TestShardHangKilledByWatchdog: a shard wedged at a window delivery is
// detected by the progress deadline, killed and restarted — on the virtual
// clock, so no real time is slept — and the run remains byte-identical.
func TestShardHangKilledByWatchdog(t *testing.T) {
	arrivals := testArrivals(7, 120, 60)
	virtual := func(o *Options) {
		o.Clock = clock.NewVirtual(time.Unix(0, 0))
		o.Deadline = 10 * time.Second
		o.PollQuantum = 2 * time.Millisecond
		o.MaxRestarts = 1000
	}
	want, err := runSharded(t, 1, arrivals, "", virtual)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runSharded(t, 1, arrivals, "hang@w2:s0", virtual)
	if err != nil {
		t.Fatal(err)
	}
	if got.res.Degraded != 0 {
		t.Fatalf("degraded %d shards: %+v", got.res.Degraded, got.res.Shards)
	}
	if counterValue(got.reg, "rtec.shard.kills") == 0 {
		t.Fatal("the watchdog never killed the hung shard")
	}
	if got.res.Shards[0].Kills == 0 {
		t.Fatal("shard 0 reports no kills")
	}
	requireIdentical(t, want, got)
}

// TestShardHangBlocksProducer pins the producer-side watchdog: with a tiny
// queue, a hung shard backs pressure up into Ingest, whose poll loop must
// detect the stalled consumer and kill it instead of blocking forever.
func TestShardHangBlocksProducer(t *testing.T) {
	arrivals := testArrivals(7, 120, 60)
	tweak := func(o *Options) {
		o.Clock = clock.NewVirtual(time.Unix(0, 0))
		o.Deadline = 10 * time.Second
		o.PollQuantum = 2 * time.Millisecond
		o.MaxRestarts = 1000
		o.QueueDepth = 2
	}
	want, err := runSharded(t, 1, arrivals, "", tweak)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runSharded(t, 1, arrivals, "hang@w1", tweak)
	if err != nil {
		t.Fatal(err)
	}
	if got.res.Degraded != 0 {
		t.Fatalf("degraded %d shards: %+v", got.res.Degraded, got.res.Shards)
	}
	if counterValue(got.reg, "rtec.shard.kills") == 0 {
		t.Fatal("no kill — the producer-side deadline never fired")
	}
	requireIdentical(t, want, got)
}

// TestShardDegradationAndHealth: a shard that panics on every attempt
// exhausts its restart budget, degrades instead of wedging the run, and
// surfaces through /healthz as a 503 with the shards check failing.
func TestShardDegradationAndHealth(t *testing.T) {
	arrivals := testArrivals(7, 120, 60)
	sup := mustSupervisor(t, arrivals, "panic@w1:s0!", func(o *Options) {
		o.MaxRestarts = 2
		o.Overflow = OverflowDrop
	})
	for _, e := range arrivals {
		if err := sup.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sup.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded != 1 {
		t.Fatalf("degraded = %d, want 1: %+v", res.Degraded, res.Shards)
	}
	st := res.Shards[0]
	if !st.Degraded || st.Err == "" || st.Restarts != 2 {
		t.Fatalf("shard 0 status %+v, want degraded after 2 restarts", st)
	}
	// The healthy shards' intervals survive the partial merge.
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

// TestShardOverflowOnDegraded pins the admission verdicts against a dead
// shard: lenient drops and counts, strict errors.
func TestShardOverflowOnDegraded(t *testing.T) {
	arrivals := testArrivals(7, 40, 60)
	for _, tc := range []struct {
		policy  OverflowPolicy
		wantErr bool
	}{
		{OverflowDrop, false},
		{OverflowError, true},
		{OverflowBlock, true},
	} {
		t.Run(tc.policy.String(), func(t *testing.T) {
			sup := mustSupervisor(t, arrivals, "", func(o *Options) {
				o.Shards = 1
				o.Overflow = tc.policy
			})
			sup.procs[0].degrade(fmt.Errorf("forced by test"), true)
			err := sup.Ingest(ev(5, "entersArea(v1, a1)"))
			if tc.wantErr && err == nil {
				t.Fatal("strict policy admitted an arrival to a degraded shard")
			}
			if !tc.wantErr {
				if err != nil {
					t.Fatal(err)
				}
				sup.procs[0].mu.Lock()
				dropped := sup.procs[0].dropped
				sup.procs[0].mu.Unlock()
				if dropped != 1 {
					t.Fatalf("dropped = %d, want 1", dropped)
				}
			}
			if _, err := sup.Close(); tc.policy == OverflowError && err == nil {
				t.Fatal("strict Close did not report the degraded shard")
			}
		})
	}
}

func mustSupervisor(t *testing.T, arrivals stream.Stream, faults string, tweak func(*Options)) *Supervisor {
	t.Helper()
	plan, err := fault.Parse(faults)
	if err != nil {
		t.Fatal(err)
	}
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
	sup := mustSupervisor(t, arrivals, "", nil)
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

func TestParseOverflow(t *testing.T) {
	for _, s := range []string{"block", "drop", "error", ""} {
		p, err := ParseOverflow(s)
		if err != nil {
			t.Fatal(err)
		}
		if s != "" && p.String() != s {
			t.Fatalf("ParseOverflow(%q).String() = %q", s, p)
		}
	}
	if _, err := ParseOverflow("panic"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

// FuzzShardFaultSchedule drives the supervisor with arbitrary fault
// schedules. The invariant: any run that completes without degradation or
// drops is byte-identical to the fault-free run over the same stream.
func FuzzShardFaultSchedule(f *testing.F) {
	f.Add("panic@w2", uint8(4))
	f.Add("hang@w1:s0", uint8(2))
	f.Add("ckpt-truncate@w2,panic@w3", uint8(1))
	f.Add("panic@w1!", uint8(3))
	f.Add("", uint8(4))
	arrivals := testArrivals(7, 40, 60)
	f.Fuzz(func(t *testing.T, spec string, shards uint8) {
		plan, err := fault.Parse(spec)
		if err != nil {
			t.Skip()
		}
		n := int(shards%4) + 1
		tweak := func(o *Options) {
			o.Shards = n
			o.Clock = clock.NewVirtual(time.Unix(0, 0))
			o.Deadline = 10 * time.Second
			o.PollQuantum = 2 * time.Millisecond
			o.MaxRestarts = 6
			o.Faults = plan
		}
		want, err := runSharded(t, 1, arrivals, "", func(o *Options) {
			tweak(o)
			o.Faults = &fault.Plan{}
		})
		if err != nil {
			t.Fatalf("fault-free run failed: %v", err)
		}
		if want.res.Degraded > 0 {
			t.Fatalf("fault-free reference run degraded %d shards: %+v", want.res.Degraded, want.res.Shards)
		}
		got, err := runSharded(t, 1, arrivals, "", tweak)
		if err != nil || got.res.Degraded > 0 {
			return // the schedule exhausted a shard; no identity promised
		}
		requireIdentical(t, want, got)
	})
}
