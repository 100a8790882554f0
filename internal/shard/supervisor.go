// Package shard is the supervised shard runtime: it partitions a
// recognition stream by consistent entity hash across N independent engine
// shards, each driven incrementally through rtec.StreamRunner with its own
// checkpoint file and staged journal, and supervises them — panics are
// caught and the shard restarted from its last checkpoint with capped
// jittered backoff, hung shards are detected by a progress deadline and
// killed, torn checkpoints fall back to the previous generation, and shards
// whose restart budget is exhausted degrade instead of taking the run down.
//
// The runtime's contract is byte-determinism under faults: with the same
// seed, the same inputs and any schedule of injected faults
// (internal/shard/fault), every shard's recognised intervals and journal
// are byte-identical to a fault-free run's. Three mechanisms combine to
// make that hold: checkpoints restore the exact engine state, the ingest
// queue retains arrivals until a checkpoint generation commits (so a
// restarted shard can replay them in the original order), and journal
// records are staged in memory one checkpoint generation behind (so a crash
// discards and regenerates the uncommitted suffix instead of leaving a torn
// audit trail).
package shard

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"rtecgen/internal/clock"
	"rtecgen/internal/rtec"
	"rtecgen/internal/shard/fault"
	"rtecgen/internal/stream"
	"rtecgen/internal/telemetry"
	"rtecgen/internal/telemetry/journal"
)

// OverflowPolicy decides what happens to an arrival when its shard's
// consumer is QueueDepth arrivals behind — the same lenient/strict split as
// the reorder buffer's late-event admission: lenient counts and drops,
// strict fails the ingest.
type OverflowPolicy int

const (
	// OverflowBlock applies backpressure: Ingest waits until the consumer
	// takes an arrival, under the progress deadline. The default.
	OverflowBlock OverflowPolicy = iota
	// OverflowDrop counts the arrival in ShardStatus.Dropped and discards
	// it — the lenient degradation verdict.
	OverflowDrop
	// OverflowError fails the Ingest call — the strict verdict.
	OverflowError
)

func (p OverflowPolicy) String() string {
	switch p {
	case OverflowDrop:
		return "drop"
	case OverflowError:
		return "error"
	default:
		return "block"
	}
}

// ParseOverflow reads an OverflowPolicy name: block, drop or error.
func ParseOverflow(s string) (OverflowPolicy, error) {
	switch s {
	case "block", "":
		return OverflowBlock, nil
	case "drop":
		return OverflowDrop, nil
	case "error":
		return OverflowError, nil
	}
	return 0, fmt.Errorf("shard: overflow policy %q (want block, drop or error)", s)
}

// Options configure a Supervisor.
type Options struct {
	// Shards is the number of entity partitions. Zero defaults to 1.
	Shards int
	// Stream is the per-shard engine configuration. Start and End must be
	// set explicitly (every shard must plan the same window sequence), and
	// CheckpointPath, when non-empty, is a base path: shard k checkpoints
	// to "<base>.s<k>". The Journal field is ignored — use JournalFor.
	Stream rtec.StreamOptions
	// JournalFor, when non-nil, returns shard k's journal sink (nil for
	// none). Records are staged in memory and committed one checkpoint
	// generation behind, so the sink never sees bytes a crash could retract.
	JournalFor func(k int) io.Writer
	// JournalOpts configure the per-shard journal writers.
	JournalOpts journal.Options
	// Resume continues a run a previous process parked with Suspend: each
	// shard whose checkpoint file exists restores from it, and the replayed
	// arrival prefix below the checkpoint is skipped at admission instead of
	// buffered. The caller must re-Ingest the same stream in the same order.
	// Requires Stream.CheckpointPath.
	Resume bool
	// JournalInfoFor, when non-nil under Resume, returns shard k's recovered
	// journal state (nil when the journal is fresh): the staged writer then
	// continues the committed sequence instead of restarting at 1, so the
	// appended suffix validates against the prefix already on disk.
	JournalInfoFor func(k int) *journal.RecoverInfo
	// OnWindow, when non-nil, observes every window delivery and revision of
	// every shard after the shard's own processing. It is called from shard
	// goroutines concurrently and must not block — a slow observer stalls
	// its shard's progress deadline. Crash replays re-deliver windows, so
	// delivery is at-least-once.
	OnWindow func(shard int, wr rtec.WindowResult)
	// Events, when non-nil, receives the supervisor's own lifecycle records
	// (shards_start, shard_restart, shard_kill, shard_degraded, shards_end).
	// Restart events exist only in faulted runs, so this trail is kept
	// apart from the byte-deterministic per-shard journals.
	Events *journal.Writer
	// QueueDepth bounds each shard's backlog: arrivals admitted but not yet
	// taken by its consumer. Zero defaults to 256. Arrivals already consumed
	// stay queued for replay until a checkpoint generation commits; they do
	// not count, because only the checkpoint interval bounds them (an
	// admission that finds QueueDepth or more queued in total is counted in
	// ShardStatus.Overflow).
	QueueDepth int
	// Overflow is the admission policy for a backlog at the bound.
	Overflow OverflowPolicy
	// Deadline is the per-shard progress deadline: a shard that neither
	// consumes an arrival nor delivers a window for this long while having
	// work is killed and restarted. Zero defaults to 10s.
	Deadline time.Duration
	// PollQuantum is how often the deadline watchdog checks the shards while
	// Ingest, Close or Suspend is blocked on one. Zero defaults to 2ms. No
	// wait ends on this tick: progress wakes a blocked caller directly.
	PollQuantum time.Duration
	// MaxRestarts caps restarts per shard before it degrades. Zero
	// defaults to 5.
	MaxRestarts int
	// Seed derives each shard's deterministic backoff jitter.
	Seed int64
	// Faults is the injected failure schedule; nil or zero injects nothing.
	Faults *fault.Plan
	// Clock is the time source for deadlines and backoff. Nil defaults to
	// the real clock; tests use clock.Virtual for sleep-free supervision.
	Clock clock.Clock
	// Telemetry receives metrics and logs. Nil disables both.
	Telemetry *telemetry.Telemetry
}

// Result is the merged outcome of a sharded run.
type Result struct {
	// Recognition is the union of the non-degraded shards' recognitions.
	*rtec.Recognition
	// Stats aggregates the per-shard stream statistics.
	Stats rtec.StreamStats
	// Shards reports each shard's final status.
	Shards []ShardStatus
	// Degraded counts shards that failed permanently.
	Degraded int
}

// ShardStatus is one shard's final report.
type ShardStatus struct {
	Shard     int    `json:"shard"`
	Consumed  int64  `json:"consumed"`
	Windows   int    `json:"windows"`
	Restarts  int64  `json:"restarts"`
	Kills     int64  `json:"kills"`
	Dropped   int64  `json:"dropped"`
	Overflow  int64  `json:"overflow"`
	Degraded  bool   `json:"degraded"`
	Suspended bool   `json:"suspended,omitempty"`
	Err       string `json:"err,omitempty"`
}

// Supervisor journal payloads. Field order fixes the byte layout.
type shardsStartEvent struct {
	Shards     int    `json:"shards"`
	QueueDepth int    `json:"queue_depth"`
	Overflow   string `json:"overflow"`
	DeadlineMS int64  `json:"deadline_ms"`
	Seed       int64  `json:"seed"`
}

type shardRestartEvent struct {
	Shard    int    `json:"shard"`
	Attempt  int64  `json:"attempt"`
	Reason   string `json:"reason"`
	Consumed int    `json:"consumed"`
	Windows  int    `json:"windows"`
}

type shardKillEvent struct {
	Shard int `json:"shard"`
}

type shardDegradedEvent struct {
	Shard    int    `json:"shard"`
	Restarts int64  `json:"restarts"`
	Reason   string `json:"reason"`
	Err      string `json:"err"`
}

type shardsSuspendEvent struct {
	Shards int `json:"shards"`
}

type shardsSuspendedEvent struct {
	Shards   int   `json:"shards"`
	Degraded int   `json:"degraded"`
	Consumed int64 `json:"consumed"`
	Windows  int64 `json:"windows"`
}

type shardsEndEvent struct {
	Shards   int   `json:"shards"`
	Degraded int   `json:"degraded"`
	Restarts int64 `json:"restarts"`
	Kills    int64 `json:"kills"`
	Observed int64 `json:"observed"`
	Windows  int64 `json:"windows"`
}

// watchdogStride is how many Ingest calls pass between supervisor-side
// deadline sweeps over all shards.
const watchdogStride = 64

// Supervisor runs N crash-recovering engine shards over one entity
// partitioning. Ingest and Close must be called from a single goroutine;
// everything else is internal.
type Supervisor struct {
	eng      *rtec.Engine
	opts     Options
	tel      *telemetry.Telemetry
	clk      clock.Clock
	procs    []*proc
	ingested int64
	closed   bool
	// waiting is set while the ingest goroutine is blocked on a shard (a
	// push against a full backlog, or a drain); wake starts the watchdog
	// ticking and, closed, ends it.
	waiting atomic.Bool
	wake    chan struct{}
}

// NewSupervisor partitions the run across opts.Shards supervised shards and
// starts them. Close finishes the run and merges the results. A plan
// rtec.CheckStreamOptions refuses starts nothing.
func NewSupervisor(eng *rtec.Engine, opts Options) (*Supervisor, error) {
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	// Refuse a plan the engine would refuse before any shard starts: inside
	// a shard the refusal would read as a permanent shard failure.
	if err := rtec.CheckStreamOptions(opts.Stream); err != nil {
		return nil, err
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 256
	}
	if opts.Deadline <= 0 {
		opts.Deadline = 10 * time.Second
	}
	if opts.PollQuantum <= 0 {
		opts.PollQuantum = 2 * time.Millisecond
	}
	if opts.MaxRestarts <= 0 {
		opts.MaxRestarts = 5
	}
	if opts.Clock == nil {
		opts.Clock = clock.Real()
	}
	if opts.Resume && opts.Stream.CheckpointPath == "" {
		return nil, fmt.Errorf("shard: Resume needs a checkpoint path to restore from")
	}
	s := &Supervisor{eng: eng, opts: opts, tel: opts.Telemetry, clk: opts.Clock,
		wake: make(chan struct{}, 1)}
	s.describeMetrics()
	s.journalEvent("shards_start", shardsStartEvent{
		Shards: opts.Shards, QueueDepth: opts.QueueDepth,
		Overflow: opts.Overflow.String(), DeadlineMS: opts.Deadline.Milliseconds(),
		Seed: opts.Seed,
	})
	now := s.clk.Now()
	for k := 0; k < opts.Shards; k++ {
		p := &proc{
			id:       k,
			sup:      s,
			inj:      opts.Faults.ForShard(k),
			lastMove: now,

			mDepth:    s.tel.Gauge(shardMetric(k, "queue.depth")),
			mConsumed: s.tel.Gauge(shardMetric(k, "consumed")),
			mWindows:  s.tel.Gauge(shardMetric(k, "windows")),
			mDegraded: s.tel.Gauge(shardMetric(k, "degraded")),
			mRestarts: s.tel.Counter(shardMetric(k, "restarts")),
		}
		p.cond = sync.NewCond(&p.mu)
		if opts.JournalFor != nil {
			if out := opts.JournalFor(k); out != nil {
				var info *journal.RecoverInfo
				if opts.Resume && opts.JournalInfoFor != nil {
					info = opts.JournalInfoFor(k)
				}
				if info != nil {
					p.stage = newStagedJournalResumed(out, opts.JournalOpts, *info)
				} else {
					p.stage = newStagedJournal(out, opts.JournalOpts)
				}
			}
		}
		if opts.Resume {
			cp, err := s.loadResume(k)
			if err != nil {
				return nil, err
			}
			if cp != nil {
				// Pin both staged generations and the consumer cursor to the
				// snapshot's position before any push or attempt can race.
				// base stays 0: the replayed prefix advances it one skipped
				// arrival at a time until it catches up with the cursor.
				p.resumeCkpt = cp
				p.skipBelow = cp.Consumed
				p.taken = cp.Consumed
				b := p.stage.boundary(cp.Consumed)
				p.prevB, p.lastB = b, b
			}
		}
		s.procs = append(s.procs, p)
	}
	for _, p := range s.procs {
		go p.run()
	}
	go s.watchdog()
	return s, nil
}

// loadResume loads shard k's cross-process resume snapshot. A shard with no
// checkpoint file (neither generation) starts fresh — legal when the
// previous process suspended before this shard ever checkpointed; an empty
// snapshot (nothing consumed, nothing delivered) also starts fresh, so the
// run_start record is journalled on the first ingest exactly as an
// uninterrupted run would.
func (s *Supervisor) loadResume(k int) (*rtec.Checkpoint, error) {
	path := s.checkpointPath(k)
	if !fileExists(path) && !fileExists(path+".prev") {
		return nil, nil
	}
	cp, _, err := rtec.LoadCheckpointWithFallback(path)
	if err != nil {
		return nil, fmt.Errorf("shard %d resume: %w", k, err)
	}
	if cp.Consumed == 0 && cp.Windows == 0 {
		return nil, nil
	}
	return cp, nil
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// shardMetric names shard k's instrument: rtec.shard.s<k>.<name>.
func shardMetric(k int, name string) string {
	return fmt.Sprintf("rtec.shard.s%d.%s", k, name)
}

func (s *Supervisor) describeMetrics() {
	if s.tel == nil || s.tel.Registry == nil {
		return
	}
	reg := s.tel.Registry
	reg.Describe("rtec.shard.restarts", "Shard restarts after a caught panic or a watchdog kill.")
	reg.Describe("rtec.shard.kills", "Shards killed by the progress-deadline watchdog.")
	reg.Describe("rtec.shard.degraded", "Shards that failed permanently this run.")
	for k := 0; k < s.opts.Shards; k++ {
		reg.Describe(shardMetric(k, "queue.depth"), "Retained arrivals in this shard's ingest queue.")
		reg.Describe(shardMetric(k, "consumed"), "Arrivals this shard has fully processed.")
		reg.Describe(shardMetric(k, "windows"), "Windows this shard has delivered at least once.")
		reg.Describe(shardMetric(k, "degraded"), "1 once this shard has failed permanently.")
		reg.Describe(shardMetric(k, "restarts"), "Restarts of this shard.")
	}
}

// runnerOpts builds shard k's engine configuration from the template.
func (s *Supervisor) runnerOpts(k int, jw *journal.Writer) rtec.StreamOptions {
	opts := s.opts.Stream
	opts.CheckpointPath = s.checkpointPath(k)
	opts.Journal = jw
	return opts
}

// checkpointPath is shard k's checkpoint file: "<base>.s<k>", or empty when
// checkpointing is off.
func (s *Supervisor) checkpointPath(k int) string {
	if s.opts.Stream.CheckpointPath == "" {
		return ""
	}
	return fmt.Sprintf("%s.s%d", s.opts.Stream.CheckpointPath, k)
}

// journalEvent appends one supervisor lifecycle record; failures are logged,
// not fatal — the supervisor trail is diagnostic, unlike shard journals.
func (s *Supervisor) journalEvent(typ string, data any) {
	if err := s.opts.Events.Append(typ, data); err != nil {
		s.tel.Logger().Warn("supervisor journal append failed",
			"component", "shard", "type", typ, "err", err)
	}
}

// Ingest routes one arrival to its entity's shard and admits it under the
// overflow policy. Every watchdogStride calls it also sweeps all shards for
// deadline violations, so a wedged shard is caught even while the healthy
// ones keep the stream flowing.
func (s *Supervisor) Ingest(e stream.Event) error {
	if s.closed {
		return fmt.Errorf("shard: Ingest after Close")
	}
	s.ingested++
	if s.ingested%watchdogStride == 0 {
		s.sweep()
	}
	k := int(rtec.EventEntity(e) % uint64(len(s.procs)))
	return s.procs[k].push(e)
}

// sweep asks every shard past its progress deadline to die. The request
// holds only while the shard stays silent (see proc.moved), so it is logged
// here and counted where it is honoured.
func (s *Supervisor) sweep() {
	now := s.clk.Now()
	for _, p := range s.procs {
		if p.stale(now) && p.kill() {
			s.tel.Logger().Warn("shard deadline exceeded, kill requested",
				"component", "shard", "shard", p.id)
		}
	}
}

// setWaiting records that the ingest goroutine is about to block on a
// shard's cond (or has stopped blocking) and, when it blocks, makes sure
// the watchdog is ticking.
func (s *Supervisor) setWaiting(on bool) {
	s.waiting.Store(on)
	if on {
		select {
		case s.wake <- struct{}{}:
		default: // already awake
		}
	}
}

// watchdog is the hang detector for a blocked caller: while the ingest
// goroutine waits it sweeps the shards every PollQuantum, so a wedged
// consumer is killed (and the kill, or the restarted consumer's progress,
// wakes the caller) instead of blocking it forever. The tick runs on the
// injected clock and decides nothing else — a healthy consumer wakes the
// caller itself. One goroutine serves every wait, since only the ingest
// goroutine waits; it exits at its first tick after Close or Suspend.
func (s *Supervisor) watchdog() {
	for range s.wake {
		for s.waiting.Load() {
			s.clk.Sleep(s.opts.PollQuantum)
			s.sweep()
		}
	}
}

// Close ends the stream: every shard's queue is closed, the drain is
// supervised under the same deadline watchdog, and the per-shard results
// are merged. With OverflowError, any degraded shard fails the run; the
// lenient policies return the partial merge and report degradation in the
// statuses.
func (s *Supervisor) Close() (*Result, error) {
	if s.closed {
		return nil, fmt.Errorf("shard: Close called twice")
	}
	s.closed = true
	for _, p := range s.procs {
		p.closeQueue()
	}
	s.waitDrain()
	res := &Result{}
	recs := make([]*rtec.Recognition, 0, len(s.procs))
	end := shardsEndEvent{Shards: len(s.procs)}
	var firstErr error
	for _, p := range s.procs {
		st := ShardStatus{
			Shard: p.id, Restarts: p.restarts, Kills: p.kills,
			Dropped: p.dropped, Overflow: p.overflow, Degraded: p.degraded,
		}
		if p.degraded {
			st.Err = p.failErr.Error()
			res.Degraded++
			if firstErr == nil {
				firstErr = fmt.Errorf("shard %d degraded: %w", p.id, p.failErr)
			}
		} else if p.result != nil {
			st.Consumed = p.result.Stats.Observed
			st.Windows = int(p.delivered)
			recs = append(recs, p.result.Recognition)
			addStats(&res.Stats, p.result.Stats)
		}
		end.Restarts += p.restarts
		end.Kills += p.kills
		res.Shards = append(res.Shards, st)
	}
	res.Recognition = rtec.MergeRecognitions(recs...)
	end.Degraded = res.Degraded
	end.Observed = res.Stats.Observed
	end.Windows = int64(sumWindows(res.Shards))
	s.journalEvent("shards_end", end)
	if res.Degraded > 0 && s.opts.Overflow == OverflowError {
		return res, firstErr
	}
	return res, nil
}

// waitDrain blocks until every shard's consumer is done (each broadcasts
// its cond when it is), keeping the deadline watchdog running so a shard
// that wedges during the drain is killed and restarted rather than hanging
// the caller forever. It ends the watchdog: nothing blocks after a drain.
func (s *Supervisor) waitDrain() {
	s.setWaiting(true)
	for _, p := range s.procs {
		p.mu.Lock()
		for !p.done {
			p.cond.Wait()
		}
		p.mu.Unlock()
	}
	s.setWaiting(false)
	close(s.wake)
}

// Suspend parks the runtime for a graceful cross-process restart: every
// shard finishes the arrivals it has already admitted, writes a suspend
// checkpoint at that boundary and commits its staged journal through it.
// No merged result is produced — a new process constructed with
// Options.Resume and re-fed the same stream continues the run with output
// byte-identical to an uninterrupted one. Requires Stream.CheckpointPath.
// Like Close, Suspend must come from the Ingest goroutine.
func (s *Supervisor) Suspend() ([]ShardStatus, error) {
	if s.closed {
		return nil, fmt.Errorf("shard: Suspend after Close")
	}
	if s.opts.Stream.CheckpointPath == "" {
		return nil, fmt.Errorf("shard: Suspend needs a checkpoint path to park into")
	}
	s.closed = true
	s.journalEvent("shards_suspend", shardsSuspendEvent{Shards: len(s.procs)})
	for _, p := range s.procs {
		p.suspendQueue()
	}
	s.waitDrain()
	end := shardsSuspendedEvent{Shards: len(s.procs)}
	var sts []ShardStatus
	var firstErr error
	for _, p := range s.procs {
		st := ShardStatus{
			Shard: p.id, Restarts: p.restarts, Kills: p.kills,
			Dropped: p.dropped, Overflow: p.overflow,
			Degraded: p.degraded, Suspended: p.suspended,
		}
		if p.degraded {
			st.Err = p.failErr.Error()
			end.Degraded++
			if firstErr == nil {
				firstErr = fmt.Errorf("shard %d failed to park: %w", p.id, p.failErr)
			}
		} else {
			st.Consumed = int64(p.parkedAt)
			st.Windows = p.delivered
			end.Consumed += int64(p.parkedAt)
			end.Windows += int64(p.delivered)
		}
		sts = append(sts, st)
	}
	s.journalEvent("shards_suspended", end)
	return sts, firstErr
}

func addStats(dst *rtec.StreamStats, src rtec.StreamStats) {
	dst.Observed += src.Observed
	dst.Accepted += src.Accepted
	dst.Late += src.Late
	dst.Duplicates += src.Duplicates
	dst.Dropped += src.Dropped
	dst.Revisions += src.Revisions
	dst.Checkpoints += src.Checkpoints
}

func sumWindows(sts []ShardStatus) int {
	n := 0
	for _, st := range sts {
		n += st.Windows
	}
	return n
}

// RegisterHealth adds the per-shard readiness check to a telemetry server:
// /healthz reports 503 with a "shards" failure while any shard is degraded.
func (s *Supervisor) RegisterHealth(srv *telemetry.Server) {
	srv.Ready("shards", func() error {
		var bad []int
		for _, p := range s.procs {
			p.mu.Lock()
			if p.degraded {
				bad = append(bad, p.id)
			}
			p.mu.Unlock()
		}
		if len(bad) > 0 {
			return fmt.Errorf("degraded shards: %v", bad)
		}
		return nil
	})
}
