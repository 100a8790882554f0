// Package shard is the supervised engine runtime: one engine, driven
// incrementally through rtec.StreamRunner with its own checkpoint file and
// staged journal, supervised so that a failure does not end the run —
// panics are caught and the engine restarted from its last checkpoint with
// capped jittered backoff, torn checkpoints fall back to the previous
// generation, and an engine whose restart budget is exhausted degrades
// instead of wedging the run. The engine sees the whole stream, so its
// answer is the batch engine's over the same arrivals.
//
// The engine keeps the name it had when the runtime partitioned streams
// across several: shard 0. Its files are "<checkpoint>.s0" and
// "<journal>.s0", and its records, errors, statuses and observer calls say
// shard 0.
//
// An engine that wedges (a loop in evaluation, a stuck fsync) is seen, not
// killed: its rtec.shard.consumed gauge stops advancing, and once its
// backlog is full Ingest blocks on it. No supervisor-side timer could end
// such an attempt — a goroutine cannot be stopped from outside — so none
// is kept.
//
// Admission has one verdict per arrival: it is admitted, waiting while the
// consumer is QueueDepth arrivals behind, or — once the engine has
// degraded — refused with ErrDegraded. Nothing is dropped, so the run's
// answer is never silently partial: Close fails whenever the engine
// degraded.
//
// The runtime's contract is byte-determinism under faults: with the same
// seed, the same inputs and any schedule of panics and torn checkpoints
// (the tests raise them from the OnWindow observer), the recognised
// intervals and the journal are byte-identical to a fault-free run's. Three
// mechanisms combine to make that hold: checkpoints restore the exact
// engine state, the ingest queue retains arrivals until a checkpoint
// generation commits (so a restarted engine can replay them in the original
// order), and journal records are staged in memory one checkpoint
// generation behind (so a crash discards and regenerates the uncommitted
// suffix instead of leaving a torn audit trail).
package shard

import (
	"fmt"
	"io"
	"os"
	"sync"

	"rtecgen/internal/clock"
	"rtecgen/internal/rtec"
	"rtecgen/internal/stream"
	"rtecgen/internal/telemetry"
	"rtecgen/internal/telemetry/journal"
)

// Options configure a Supervisor.
type Options struct {
	// Shards does nothing: the supervisor runs one engine over the whole
	// stream, whatever its value.
	//
	// frozen: read only by benchmark/ (ROADMAP 21)
	Shards int
	// Stream is the engine configuration. Start and End must be set
	// explicitly (a runner never sees the whole stream), and
	// CheckpointPath, when non-empty, is a base path: the engine
	// checkpoints to "<base>.s0". The Journal field is ignored — use
	// JournalFor.
	Stream rtec.StreamOptions
	// JournalFor, when non-nil, returns the engine's journal sink when
	// called with 0 (nil for none). Records are staged in memory and
	// committed one checkpoint generation behind, so the sink never sees
	// bytes a crash could retract.
	JournalFor func(k int) io.Writer
	// JournalOpts configure the engine's journal writer.
	JournalOpts journal.Options
	// Resume continues a run a previous process parked with Suspend: when
	// the checkpoint file exists the engine restores from it, and the
	// replayed arrival prefix below the checkpoint is skipped at admission
	// instead of buffered. The caller must re-Ingest the same stream in the
	// same order. Requires Stream.CheckpointPath.
	Resume bool
	// JournalInfo, when non-nil under Resume, is the recovered journal
	// state (nil when the journal is fresh): the staged writer then
	// continues the committed sequence instead of restarting at 1, so the
	// appended suffix validates against the prefix already on disk.
	JournalInfo *journal.RecoverInfo
	// OnWindow, when non-nil, observes every window delivery and revision
	// after the engine's own processing, with shard 0. It is called from
	// the consumer goroutine and must not block — a slow observer stalls
	// the run. Crash replays re-deliver windows, so delivery is
	// at-least-once. A panic in the observer is an engine panic: the engine
	// restarts from its checkpoint.
	OnWindow func(shard int, wr rtec.WindowResult)
	// Events, when non-nil, receives the supervisor's own lifecycle records
	// (shards_start, shard_restart, shard_degraded, shards_end).
	// Restart events exist only in faulted runs, so this trail is kept
	// apart from the byte-deterministic engine journal.
	Events *journal.Writer
	// QueueDepth bounds the backlog: arrivals admitted but not yet taken by
	// the consumer. Zero defaults to 256. Arrivals already consumed stay
	// queued for replay until a checkpoint generation commits; they do not
	// count, because only the checkpoint interval bounds them (an admission
	// that finds QueueDepth or more queued in total is counted in
	// ShardStatus.Overflow). An arrival that finds the backlog at the bound
	// waits for the consumer to take one.
	QueueDepth int
	// MaxRestarts caps restarts before the engine degrades. Zero defaults
	// to 5.
	MaxRestarts int
	// Seed derives the deterministic backoff jitter.
	Seed int64
	// Clock is the time source for restart backoff. Nil defaults to the
	// real clock; tests use clock.Virtual for sleep-free supervision.
	Clock clock.Clock
	// Telemetry receives metrics and logs. Nil disables both.
	Telemetry *telemetry.Telemetry
}

// Result is the outcome of a supervised run.
type Result struct {
	// Recognition is the engine's recognition; nil when it degraded.
	*rtec.Recognition
	// Stats are the engine's stream statistics.
	Stats rtec.StreamStats
	// Shards holds the engine's final status, its one entry.
	Shards []ShardStatus
	// Degraded is 1 when the engine failed permanently, else 0.
	Degraded int
}

// ShardStatus is the engine's final report.
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

// Supervisor runs one crash-recovering engine. Ingest and Close must be
// called from a single goroutine; everything else is internal.
type Supervisor struct {
	eng    *rtec.Engine
	opts   Options
	tel    *telemetry.Telemetry
	clk    clock.Clock
	p      *proc
	closed bool
}

// NewSupervisor starts the supervised engine. Close finishes the run. A
// plan rtec.CheckStreamOptions refuses starts nothing.
func NewSupervisor(eng *rtec.Engine, opts Options) (*Supervisor, error) {
	// Refuse a plan the engine would refuse before the engine starts:
	// inside it the refusal would read as a permanent failure.
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
		Shards: 1, QueueDepth: opts.QueueDepth, Seed: opts.Seed,
	})
	p := &proc{
		sup: s,

		mDepth:    s.tel.Gauge("rtec.shard.queue.depth"),
		mConsumed: s.tel.Gauge("rtec.shard.consumed"),
		mWindows:  s.tel.Gauge("rtec.shard.windows"),
	}
	p.cond = sync.NewCond(&p.mu)
	if opts.JournalFor != nil {
		if out := opts.JournalFor(0); out != nil {
			if opts.Resume && opts.JournalInfo != nil {
				p.stage = newStagedJournalResumed(out, opts.JournalOpts, *opts.JournalInfo)
			} else {
				p.stage = newStagedJournal(out, opts.JournalOpts)
			}
		}
	}
	if opts.Resume {
		cp, err := s.loadResume()
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
	s.p = p
	go p.run()
	return s, nil
}

// loadResume loads the cross-process resume snapshot from the current
// checkpoint generation only. No checkpoint file (neither generation)
// starts fresh — legal when the previous process suspended before the
// engine ever checkpointed; an empty snapshot (nothing consumed, nothing
// delivered) also starts fresh, so the run_start record is journalled on
// the first ingest exactly as an uninterrupted run would. The journal was
// committed through the suspend point, so resuming from the previous
// generation would journal the replayed windows twice: a current file that
// is unusable, or missing beside a ".prev", fails the resume.
func (s *Supervisor) loadResume() (*rtec.Checkpoint, error) {
	path := s.checkpointPath()
	if !fileExists(path) && !fileExists(path+".prev") {
		return nil, nil
	}
	cp, err := rtec.LoadCheckpoint(path)
	if err != nil {
		return nil, fmt.Errorf("shard 0 resume: %w", err)
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

func (s *Supervisor) describeMetrics() {
	if s.tel == nil || s.tel.Registry == nil {
		return
	}
	reg := s.tel.Registry
	reg.Describe("rtec.shard.restarts", "Engine restarts after a caught panic or a failed attempt.")
	reg.Describe("rtec.shard.degraded", "1 once the engine has failed permanently.")
	reg.Describe("rtec.shard.queue.depth", "Retained arrivals in the ingest queue.")
	reg.Describe("rtec.shard.consumed", "Arrivals the engine has fully processed.")
	reg.Describe("rtec.shard.windows", "Windows the engine has delivered at least once.")
}

// runnerOpts builds the engine configuration from the template.
func (s *Supervisor) runnerOpts(jw *journal.Writer) rtec.StreamOptions {
	opts := s.opts.Stream
	opts.CheckpointPath = s.checkpointPath()
	opts.Journal = jw
	return opts
}

// checkpointPath is the engine's checkpoint file: "<base>.s0", or empty
// when checkpointing is off.
func (s *Supervisor) checkpointPath() string {
	if s.opts.Stream.CheckpointPath == "" {
		return ""
	}
	return s.opts.Stream.CheckpointPath + ".s0"
}

// journalEvent appends one supervisor lifecycle record; failures are logged,
// not fatal — the supervisor trail is diagnostic, unlike the engine journal.
func (s *Supervisor) journalEvent(typ string, data any) {
	if err := s.opts.Events.Append(typ, data); err != nil {
		s.tel.Logger().Warn("supervisor journal append failed",
			"component", "shard", "type", typ, "err", err)
	}
}

// Ingest admits one arrival, waiting while the backlog is at QueueDepth; an
// arrival after the engine degraded fails with ErrDegraded.
func (s *Supervisor) Ingest(e stream.Event) error {
	if s.closed {
		return fmt.Errorf("shard: Ingest after Close")
	}
	return s.p.push(e)
}

// Close ends the stream: the queue is closed and the engine drains. A
// degraded engine fails the run: Close then returns its error together with
// the Result, whose status says why and whose Recognition is nil.
func (s *Supervisor) Close() (*Result, error) {
	if s.closed {
		return nil, fmt.Errorf("shard: Close called twice")
	}
	s.closed = true
	p := s.p
	p.closeQueue()
	p.waitDone()
	st := ShardStatus{Restarts: p.restarts, Overflow: p.overflow, Degraded: p.degraded}
	res := &Result{}
	var err error
	if p.degraded {
		st.Err = p.failErr.Error()
		res.Degraded = 1
		err = fmt.Errorf("shard 0 degraded: %w", p.failErr)
	} else {
		st.Consumed = p.result.Stats.Observed
		st.Windows = p.delivered
		res.Recognition = p.result.Recognition
		res.Stats = p.result.Stats
	}
	res.Shards = []ShardStatus{st}
	s.journalEvent("shards_end", shardsEndEvent{
		Shards: 1, Degraded: res.Degraded, Restarts: p.restarts,
		Observed: res.Stats.Observed, Windows: int64(st.Windows),
	})
	return res, err
}

// Suspend parks the runtime for a graceful cross-process restart: the
// engine finishes the arrivals it has already admitted, writes a suspend
// checkpoint at that boundary and commits its staged journal through it.
// No result is produced — a new process constructed with Options.Resume
// and re-fed the same stream continues the run with output byte-identical
// to an uninterrupted one. Requires Stream.CheckpointPath. Like Close,
// Suspend must come from the Ingest goroutine.
func (s *Supervisor) Suspend() ([]ShardStatus, error) {
	if s.closed {
		return nil, fmt.Errorf("shard: Suspend after Close")
	}
	if s.opts.Stream.CheckpointPath == "" {
		return nil, fmt.Errorf("shard: Suspend needs a checkpoint path to park into")
	}
	s.closed = true
	s.journalEvent("shards_suspend", shardsSuspendEvent{Shards: 1})
	p := s.p
	p.suspendQueue()
	p.waitDone()
	st := ShardStatus{
		Restarts: p.restarts, Overflow: p.overflow,
		Degraded: p.degraded, Suspended: p.suspended,
	}
	end := shardsSuspendedEvent{Shards: 1}
	var err error
	if p.degraded {
		st.Err = p.failErr.Error()
		end.Degraded = 1
		err = fmt.Errorf("shard 0 failed to park: %w", p.failErr)
	} else {
		st.Consumed = int64(p.parkedAt)
		st.Windows = p.delivered
		end.Consumed = int64(p.parkedAt)
		end.Windows = int64(p.delivered)
	}
	s.journalEvent("shards_suspended", end)
	return []ShardStatus{st}, err
}

// Health is the engine's readiness check: an error naming the engine once
// it degraded, nil before. rtecd's /healthz reports it as "shards".
func (s *Supervisor) Health() error {
	p := s.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.degraded {
		return fmt.Errorf("degraded shards: [0]")
	}
	return nil
}
