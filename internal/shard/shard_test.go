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

// crash is one engine failure raised from the OnWindow observer: at the
// first-time delivery of its window-th window (1-based, identified by the
// window's query time) the engine panics, and it degrades. tear first cuts
// the checkpoint file "<base>.s0" to half its size. A crash fires once in a
// run, or in every process when every is set — a fault the arrivals raise
// again whenever they are replayed.
type crash struct {
	window int
	every  bool
	tear   bool
}

// panicAt is a crash that fires once, at the window-th delivery.
func panicAt(window int) crash { return crash{window: window} }

// schedule acts out crashes across the processes of one run: its latches
// live outside every engine, so a resumed process replays past a crash
// that fired, as it would past a fault outside the engine.
type schedule struct {
	mu      sync.Mutex
	crashes []crash
	fired   map[int]bool // by crash index
}

func newSchedule(crashes ...crash) *schedule {
	return &schedule{crashes: crashes, fired: map[int]bool{}}
}

// observer is the OnWindow observer that acts out the crashes on the
// tumbling time-line of opts.
func (s *schedule) observer(opts Options) func(int, rtec.WindowResult) {
	ro := opts.Stream.RunOptions
	return func(_ int, wr rtec.WindowResult) {
		if wr.Revision != 0 {
			return
		}
		for i, c := range s.crashes {
			if wr.QueryTime != min(ro.Start+int64(c.window)*ro.Window, ro.End) {
				continue
			}
			s.mu.Lock()
			again := s.fired[i]
			s.fired[i] = true
			s.mu.Unlock()
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

// fileConfig is what every process of a file-backed run shares: its
// checkpoint and journal files live in dir, so a later process can resume
// from them the way a restarted rtecd does.
type fileConfig struct {
	dir      string
	arrivals stream.Stream
	every    int                           // checkpoint cadence
	eng      func(testing.TB) *rtec.Engine // nil: testEngine
	sched    *schedule                     // nil: no faults
	tweak    func(*Options)
}

// fileRun is one process of a file-backed run.
type fileRun struct {
	sup    *Supervisor
	jf     *os.File
	path   string       // the engine journal
	events bytes.Buffer // the lifecycle journal
}

// open starts a process, resuming the files in c.dir when resume is set,
// and returns NewSupervisor's error with the journal file closed again.
func (c *fileConfig) open(t testing.TB, resume bool) (*fileRun, error) {
	t.Helper()
	first, last := c.arrivals.TimeRange()
	r := &fileRun{path: filepath.Join(c.dir, "run.journal.s0")}
	var err error
	if r.jf, _, _, err = journal.Open(r.path, journal.Options{}, resume, false); err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Stream: rtec.StreamOptions{
			RunOptions:      rtec.RunOptions{Window: 100, Start: first, End: last + 1},
			MaxDelay:        60,
			CheckpointPath:  filepath.Join(c.dir, "run.ckpt"),
			CheckpointEvery: c.every,
		},
		JournalFor: func(int) io.Writer { return r.jf },
		Resume:     resume,
		Telemetry:  telemetry.New(telemetry.NewRegistry(), nil, nil),
	}
	opts.Events = journal.NewWriter(&r.events, journal.Options{})
	if c.tweak != nil {
		c.tweak(&opts)
	}
	if c.sched != nil {
		opts.OnWindow = c.sched.observer(opts)
	}
	eng := testEngine
	if c.eng != nil {
		eng = c.eng
	}
	if r.sup, err = NewSupervisor(eng(t), opts); err != nil {
		r.jf.Close()
		return nil, err
	}
	return r, nil
}

// start is open failing the test on NewSupervisor's error.
func (c *fileConfig) start(t testing.TB, resume bool) *fileRun {
	t.Helper()
	r, err := c.open(t, resume)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// ingest feeds arrivals until the engine refuses one; it reports whether
// all were admitted.
func (r *fileRun) ingest(arrivals stream.Stream) bool {
	for _, e := range arrivals {
		if r.sup.Ingest(e) != nil {
			return false
		}
	}
	return true
}

func (r *fileRun) journalBytes(t testing.TB) []byte {
	t.Helper()
	b, err := os.ReadFile(r.path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// outcome is what a finished run leaves: its result, its engine journal
// and the number of processes it took.
type outcome struct {
	res       *Result
	journal   []byte
	processes int
	first     *fileRun // the first process
}

// untilFinished runs processes over the files of c until one finishes the
// run: the first starts fresh (or resumes, with resume set), and each later
// one resumes what its predecessor's degraded engine left; each is fed the
// whole stream. The error is a resume that failed, or a run still degraded
// after max processes.
func (c *fileConfig) untilFinished(t testing.TB, resume bool, max int) (outcome, error) {
	t.Helper()
	var out outcome
	for out.processes < max {
		out.processes++
		r, err := c.open(t, resume || out.processes > 1)
		if err != nil {
			return out, err
		}
		if out.first == nil {
			out.first = r
		}
		r.ingest(c.arrivals)
		res, err := r.sup.Close()
		r.jf.Close()
		if err == nil {
			out.res, out.journal = res, r.journalBytes(t)
			return out, nil
		}
		if !strings.Contains(err.Error(), "shard 0 degraded") {
			t.Fatalf("process %d: Close: %v", out.processes, err)
		}
	}
	return out, fmt.Errorf("still degraded after %d processes", max)
}

// requireIdentical asserts the resume contract: same recognised intervals,
// same engine journal bytes, same statistics.
func requireIdentical(t testing.TB, want, got outcome) {
	t.Helper()
	if a, b := csvOf(t, want.res.Recognition), csvOf(t, got.res.Recognition); a != b {
		t.Fatalf("recognised intervals differ after resuming:\n%s\nvs uninterrupted\n%s", b, a)
	}
	if want.res.Stats != got.res.Stats {
		t.Fatalf("stats differ after resuming: %+v vs %+v", got.res.Stats, want.res.Stats)
	}
	if !bytes.Equal(want.journal, got.journal) {
		t.Fatalf("journal differs after resuming:\n%s\nvs uninterrupted\n%s", got.journal, want.journal)
	}
}

// faultFree runs c without faults, in a directory of its own.
func faultFree(t testing.TB, c fileConfig) outcome {
	t.Helper()
	c.dir, c.sched = t.TempDir(), nil
	out, err := c.untilFinished(t, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestShardRestartByteIdentity is the process-level restart contract: a
// panic at the 2nd window degrades the engine, and a new process resumed
// over its files and re-fed the whole stream is byte-identical to an
// uninterrupted run — intervals, stats and journal. The degraded process's
// lifecycle journal names the panic. It runs at both values of the engine's
// Workers option that callers still set (the option is accepted and
// ignored), and on the maritime input: the gold event description over the
// 14-vessel seed-7 scenario, shuffled at max-delay 900 with a duplicate
// every 50 events, the windows rtecd serves.
func TestShardRestartByteIdentity(t *testing.T) {
	check := func(t *testing.T, c fileConfig, window int) {
		want := faultFree(t, c)
		c.dir, c.sched = t.TempDir(), newSchedule(panicAt(window))
		got, err := c.untilFinished(t, false, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got.processes != 2 {
			t.Fatalf("%d processes: the fault never fired", got.processes)
		}
		recs, err := journal.Read(&got.first.events)
		if err != nil {
			t.Fatal(err)
		}
		var degraded shardDegradedEvent
		for _, rec := range recs {
			if rec.Type == "shard_degraded" {
				json.Unmarshal(rec.Data, &degraded) //nolint:errcheck // checked below
			}
		}
		if want := fmt.Sprintf("shard 0 panicked: injected panic at window %d", window); degraded.Err != want {
			t.Fatalf("shard_degraded record %+v, want one naming %q", degraded, want)
		}
		if st := got.res.Shards[0]; st.Restarts != 0 || st.Overflow != 0 {
			t.Fatalf("status %+v: restarts and overflow are frozen at 0", st)
		}
		requireIdentical(t, want, got)
	}
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			check(t, fileConfig{arrivals: testArrivals(7, 120, 60), every: 1,
				eng: func(t testing.TB) *rtec.Engine {
					return testEngineOpts(t, rtec.Options{Strict: true, Workers: workers})
				}}, 2)
		})
	}
	t.Run("maritime", func(t *testing.T) {
		eng, arrivals := maritimeInput(t)
		first, last := arrivals.TimeRange()
		check(t, fileConfig{arrivals: arrivals, every: 1,
			eng: func(testing.TB) *rtec.Engine { return eng },
			tweak: func(o *Options) {
				o.Stream.RunOptions = rtec.RunOptions{Window: 3600, Start: first, End: last + 1}
				o.Stream.MaxDelay = 900
			}}, 3)
	})
}

// TestShardRestartWithoutCheckpoints: a panic before the engine ever
// checkpointed leaves no checkpoint to resume from, so the new process
// empties the journal and starts fresh — and the output is still
// byte-identical.
func TestShardRestartWithoutCheckpoints(t *testing.T) {
	c := fileConfig{arrivals: testArrivals(11, 80, 60), every: 1000}
	want := faultFree(t, c)
	c.dir, c.sched = t.TempDir(), newSchedule(panicAt(2))
	got, err := c.untilFinished(t, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.processes != 2 {
		t.Fatalf("%d processes: the fault never fired", got.processes)
	}
	requireIdentical(t, want, got)
}

// TestShardCheckpointWriteFailureCommitsOnlyDurable: a checkpoint write
// that fails behind the consumer — its temporary file's name is taken by a
// directory — degrades the engine at the next cadence point, naming the
// write. The journal then holds the clean run's records through the failed
// generation's checkpoint record, flushed before its write started, and
// nothing after it; the checkpoint file holds an older generation. A new
// process cuts the journal back to that generation's record and finishes
// byte-identically.
func TestShardCheckpointWriteFailureCommitsOnlyDurable(t *testing.T) {
	c := fileConfig{arrivals: testArrivals(7, 120, 60), every: 1}
	want := faultFree(t, c)
	first, _ := c.arrivals.TimeRange()
	c.dir = t.TempDir()
	tmp := filepath.Join(c.dir, "run.ckpt.s0.tmp")
	var once sync.Once
	c.tweak = func(o *Options) {
		o.OnWindow = func(_ int, wr rtec.WindowResult) {
			if wr.Revision != 0 || wr.QueryTime != first+3*100 {
				return
			}
			once.Do(func() {
				// The write of the previous generation may still hold the
				// name; it renames it away.
				for i := 0; os.Mkdir(tmp, 0o755) != nil; i++ {
					if i == 1000 {
						panic("the checkpoint's temporary name never freed")
					}
					time.Sleep(time.Millisecond)
				}
			})
		}
	}
	r := c.start(t, false)
	r.ingest(c.arrivals)
	_, err := r.sup.Close()
	r.jf.Close()
	if err == nil || !strings.Contains(err.Error(), "degraded") || !strings.Contains(err.Error(), "rtec: checkpoint: ") {
		t.Fatalf("Close err = %v, want the engine degraded by the failed checkpoint write", err)
	}
	got := r.journalBytes(t)
	recs, err := journal.Read(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(want.journal, got) || recs[len(recs)-1].Type != "checkpoint" {
		t.Fatalf("the degraded journal is not the clean run's prefix through a checkpoint record:\n%s", got)
	}
	cp, err := rtec.LoadCheckpoint(filepath.Join(c.dir, "run.ckpt.s0"))
	if err != nil {
		t.Fatal(err)
	}
	if cp.JournalSeq >= recs[len(recs)-1].Seq {
		t.Fatalf("the checkpoint on disk covers record %d, the failed generation's is %d", cp.JournalSeq, recs[len(recs)-1].Seq)
	}

	if err := os.Remove(tmp); err != nil {
		t.Fatal(err)
	}
	c.tweak = nil
	resumed, err := c.untilFinished(t, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, want, resumed)
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

// mustSupervisor starts a supervisor over arrivals with no journal, its
// checkpoints in a temporary directory; the crashes act out through its
// observer.
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
	}
	if tweak != nil {
		tweak(&opts)
	}
	if crashes != nil {
		opts.OnWindow = newSchedule(crashes...).observer(opts)
	}
	sup, err := NewSupervisor(testEngine(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	return sup
}

// TestShardPanicUnblocksProducer: with a tiny queue the producer blocks on
// the full backlog, and the engine panics at its first window. The
// degradation alone must wake the blocked Ingest — nothing polls on its
// behalf — which then refuses the arrival with ErrDegraded.
func TestShardPanicUnblocksProducer(t *testing.T) {
	arrivals := testArrivals(7, 120, 60)
	sup := mustSupervisor(t, arrivals, []crash{panicAt(1)}, func(o *Options) { o.QueueDepth = 2 })
	var err error
	for _, e := range arrivals {
		if err = sup.Ingest(e); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrDegraded) || !strings.Contains(err.Error(), "injected panic at window 1") {
		t.Fatalf("Ingest to the panicked engine: err = %v, want ErrDegraded naming the panic", err)
	}
	if _, err := sup.Close(); err == nil {
		t.Fatal("Close did not report the degraded engine")
	}
}

// TestShardDegradationAndHealth: an engine that panics degrades at once
// instead of wedging the run: the arrivals after it are refused with
// ErrDegraded, Close fails the run while still returning the Result that
// says why, and Health — rtecd's "shards" readiness check — fails naming
// the engine.
func TestShardDegradationAndHealth(t *testing.T) {
	arrivals := testArrivals(7, 120, 60)
	sup := mustSupervisor(t, arrivals, []crash{{window: 1, every: true}}, nil)
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
	if !st.Degraded || !strings.Contains(st.Err, "injected panic at window 1") || st.Restarts != 0 {
		t.Fatalf("shard 0 status %+v, want degraded by the panic, without a restart", st)
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
		sup.p.degrade(fmt.Errorf("forced by test"))
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

// writeCounter counts the writes that reach it.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestJournalOneWritePerGeneration: the engine journal reaches its sink in
// at most one write per checkpoint generation and one at the end of the
// run, not one per record, and what reaches it validates.
func TestJournalOneWritePerGeneration(t *testing.T) {
	arrivals := testArrivals(7, 160, 60)
	var sink writeCounter
	sup := mustSupervisor(t, arrivals, nil, func(o *Options) {
		o.JournalFor = func(int) io.Writer { return &sink }
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
	stats, err := journal.Validate(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if int64(sink.writes) > res.Stats.Checkpoints+1 || stats.Records <= sink.writes {
		t.Fatalf("%d records in %d writes for %d checkpoints", stats.Records, sink.writes, res.Stats.Checkpoints)
	}
}

// FuzzShardFaultSchedule drives process-level recovery with arbitrary fault
// schedules: each crash degrades a process, and the next resumes over its
// files. The invariant: every resume either refuses naming the checkpoint a
// tear damaged, or the run it finishes is byte-identical to the fault-free
// run over the same stream. A crash set to fire in every process keeps the
// run degraded: replaying the same arrivals raises the same fault.
func FuzzShardFaultSchedule(f *testing.F) {
	f.Add([]byte{0, 1, 0})          // panic at window 2
	f.Add([]byte{1, 0, 1})          // tear and panic at window 1
	f.Add([]byte{1, 1, 0, 0, 2, 0}) // tear and panic at 2, then panic at 3
	f.Add([]byte{0, 0, 0x80})       // panic at window 1 in every process
	f.Add([]byte{})                 // no fault
	c := fileConfig{arrivals: testArrivals(7, 40, 60), every: 1}
	var want outcome
	f.Fuzz(func(t *testing.T, schedule []byte) {
		if want.res == nil {
			want = faultFree(t, c)
		}
		crashes := decodeSchedule(schedule)
		c := c
		c.dir, c.sched = t.TempDir(), newSchedule(crashes...)
		got, err := c.untilFinished(t, false, len(crashes)+1)
		switch {
		case err != nil && strings.Contains(err.Error(), "still degraded"):
			for _, cr := range crashes {
				if cr.every {
					return // the deterministic fault: no process gets past it
				}
			}
			t.Fatalf("%v with no fault firing in every process", err)
		case err != nil:
			if !strings.Contains(err.Error(), filepath.Join(c.dir, "run.ckpt.s0")) {
				t.Fatalf("resume refused without naming the damaged checkpoint: %v", err)
			}
		default:
			requireIdentical(t, want, got)
		}
	})
}

// decodeSchedule reads a fuzzed fault schedule three bytes per crash: the
// kind (panic, or tear the checkpoint and panic), the window (1–4), and the
// scope, whose high bit makes the crash fire in every process; its low
// seven bits are ignored.
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
