// Package shard is the supervised shard runtime: it partitions a
// recognition stream by consistent entity hash across N independent engine
// shards, each driven incrementally through rtec.StreamRunner with its own
// checkpoint file and staged journal, and supervises them — panics are
// caught and the shard restarted from its last checkpoint with capped
// jittered backoff, torn checkpoints fall back to the previous generation,
// and shards whose restart budget is exhausted degrade instead of wedging
// the run.
//
// A shard that wedges (a loop in evaluation, a stuck fsync) is seen, not
// killed: its rtec.shard.s<k>.consumed gauge stops advancing, and once its
// backlog is full Ingest blocks on it. No supervisor-side timer could end
// such an attempt — a goroutine cannot be stopped from outside — so none
// is kept.
//
// Admission has one verdict per arrival: it is admitted, waiting while its
// shard's consumer is QueueDepth arrivals behind, or — when that shard has
// degraded — refused with ErrDegraded. Nothing is dropped, so the run's
// answer is never silently partial: Close fails whenever a shard degraded.
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

	"rtecgen/internal/clock"
	"rtecgen/internal/rtec"
	"rtecgen/internal/shard/fault"
	"rtecgen/internal/stream"
	"rtecgen/internal/telemetry"
	"rtecgen/internal/telemetry/journal"
)

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
	// its shard. Crash replays re-deliver windows, so delivery is
	// at-least-once.
	OnWindow func(shard int, wr rtec.WindowResult)
	// Events, when non-nil, receives the supervisor's own lifecycle records
	// (shards_start, shard_restart, shard_degraded, shards_end).
	// Restart events exist only in faulted runs, so this trail is kept
	// apart from the byte-deterministic per-shard journals.
	Events *journal.Writer
	// QueueDepth bounds each shard's backlog: arrivals admitted but not yet
	// taken by its consumer. Zero defaults to 256. Arrivals already consumed
	// stay queued for replay until a checkpoint generation commits; they do
	// not count, because only the checkpoint interval bounds them (an
	// admission that finds QueueDepth or more queued in total is counted in
	// ShardStatus.Overflow). An arrival that finds the backlog at the bound
	// waits for the consumer to take one.
	QueueDepth int
	// MaxRestarts caps restarts per shard before it degrades. Zero
	// defaults to 5.
	MaxRestarts int
	// Seed derives each shard's deterministic backoff jitter.
	Seed int64
	// Faults is the injected failure schedule; nil or zero injects nothing.
	Faults *fault.Plan
	// Clock is the time source for restart backoff. Nil defaults to the
	// real clock; tests use clock.Virtual for sleep-free supervision.
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
	Overflow  int64  `json:"overflow"`
	Degraded  bool   `json:"degraded"`
	Suspended bool   `json:"suspended,omitempty"`
	Err       string `json:"err,omitempty"`
}

// Supervisor journal payloads. Field order fixes the byte layout.
type shardsStartEvent struct {
	Shards     int   `json:"shards"`
	QueueDepth int   `json:"queue_depth"`
	Seed       int64 `json:"seed"`
}

type shardRestartEvent struct {
	Shard    int    `json:"shard"`
	Attempt  int64  `json:"attempt"`
	Reason   string `json:"reason"`
	Consumed int    `json:"consumed"`
	Windows  int    `json:"windows"`
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
	Observed int64 `json:"observed"`
	Windows  int64 `json:"windows"`
}

// Supervisor runs N crash-recovering engine shards over one entity
// partitioning. Ingest and Close must be called from a single goroutine;
// everything else is internal.
type Supervisor struct {
	eng    *rtec.Engine
	opts   Options
	tel    *telemetry.Telemetry
	clk    clock.Clock
	procs  []*proc
	closed bool
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
	if opts.MaxRestarts <= 0 {
		opts.MaxRestarts = 5
	}
	if opts.Clock == nil {
		opts.Clock = clock.Real()
	}
	if opts.Resume && opts.Stream.CheckpointPath == "" {
		return nil, fmt.Errorf("shard: Resume needs a checkpoint path to restore from")
	}
	s := &Supervisor{eng: eng, opts: opts, tel: opts.Telemetry, clk: opts.Clock}
	s.describeMetrics()
	s.journalEvent("shards_start", shardsStartEvent{
		Shards: opts.Shards, QueueDepth: opts.QueueDepth, Seed: opts.Seed,
	})
	for k := 0; k < opts.Shards; k++ {
		p := &proc{
			id:  k,
			sup: s,
			inj: opts.Faults.ForShard(k),

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
	reg.Describe("rtec.shard.restarts", "Shard restarts after a caught panic or a failed attempt.")
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

// Ingest routes one arrival to its entity's shard and admits it, waiting
// while that shard's backlog is at QueueDepth; an arrival for a degraded
// shard fails with ErrDegraded.
func (s *Supervisor) Ingest(e stream.Event) error {
	if s.closed {
		return fmt.Errorf("shard: Ingest after Close")
	}
	k := int(rtec.EventEntity(e) % uint64(len(s.procs)))
	return s.procs[k].push(e)
}

// Close ends the stream: every shard's queue is closed, the shards drain,
// and the per-shard results are merged. A degraded shard fails the run: Close then returns the first
// degradation's error together with the Result, whose merge holds only the
// healthy shards and whose statuses say which shard failed.
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
			Shard: p.id, Restarts: p.restarts,
			Overflow: p.overflow, Degraded: p.degraded,
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
		res.Shards = append(res.Shards, st)
	}
	res.Recognition = rtec.MergeRecognitions(recs...)
	end.Degraded = res.Degraded
	end.Observed = res.Stats.Observed
	end.Windows = int64(sumWindows(res.Shards))
	s.journalEvent("shards_end", end)
	return res, firstErr
}

// waitDrain blocks until every shard's consumer is done (each broadcasts
// its cond when it is): finished, parked or degraded.
func (s *Supervisor) waitDrain() {
	for _, p := range s.procs {
		p.mu.Lock()
		for !p.done {
			p.cond.Wait()
		}
		p.mu.Unlock()
	}
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
			Shard: p.id, Restarts: p.restarts,
			Overflow: p.overflow, Degraded: p.degraded, Suspended: p.suspended,
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
