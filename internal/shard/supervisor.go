// Package shard is the supervised engine runtime: one engine, driven
// incrementally through rtec.StreamRunner with its own checkpoint file and
// journal, behind a bounded ingest queue. The engine sees the whole stream,
// so its answer is the batch engine's over the same arrivals.
//
// The engine keeps the name it had when the runtime partitioned streams
// across several: shard 0. Its files are "<checkpoint>.s0" and
// "<journal>.s0", and its records, errors, statuses and observer calls say
// shard 0.
//
// A panic is a crash. The engine is deterministic, so a failed attempt — a
// panic in the engine or the observer, a checkpoint write error — is not
// retried in process, where the same arrivals would raise the same fault:
// the engine degrades at once. The queue then refuses arrivals with
// ErrDegraded, Health fails and Close fails the run, whose answer is never
// silently partial. Recovery is a new process: Options.Resume restores the
// last durable checkpoint, cuts the engine journal back to the record that
// checkpoint covers, and skips the arrivals it consumed when the caller
// re-feeds the stream. Its output is byte-identical to an uninterrupted
// run's, after a graceful Suspend or a hard kill alike.
//
// An engine that wedges (a loop in evaluation, a stuck fsync) is seen, not
// killed: its rtec.shard.consumed gauge stops advancing, and once its
// backlog is full Ingest blocks on it. No supervisor-side timer could end
// it — a goroutine cannot be stopped from outside — so none is kept.
//
// Admission has one verdict per arrival: it is admitted, waiting while the
// consumer is QueueDepth arrivals behind, or — once the engine has
// degraded — refused with ErrDegraded. Nothing is dropped.
package shard

import (
	"fmt"
	"io"
	"os"
	"sync"

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
	// called with 0 (nil for none). Records are buffered and reach the sink
	// in one write per checkpoint generation, suspend and finish, each
	// before the checkpoint that covers them. Under Resume the sink must be
	// the *os.File of the journal being continued, opened for appending.
	JournalFor func(k int) io.Writer
	// JournalOpts configure the engine's journal writer.
	JournalOpts journal.Options
	// Resume continues a run an earlier process left behind, parked by
	// Suspend or killed: the engine restores from the checkpoint file when
	// it exists (and starts fresh when it does not), the engine journal is
	// cut back to the record the checkpoint covers, and the arrival prefix
	// the checkpoint consumed is skipped at admission. The caller must
	// re-Ingest the same stream in the same order. Requires
	// Stream.CheckpointPath.
	Resume bool
	// OnWindow, when non-nil, observes every window delivery and revision
	// after the engine's own processing, with shard 0. It is called from
	// the consumer goroutine and must not block — a slow observer stalls
	// the run. A panic in the observer is an engine panic: the engine
	// degrades.
	OnWindow func(shard int, wr rtec.WindowResult)
	// Events, when non-nil, receives the supervisor's own lifecycle records
	// (shards_start, shard_degraded, shards_suspend, shards_suspended,
	// shards_end), kept apart from the byte-deterministic engine journal.
	Events *journal.Writer
	// QueueDepth bounds the backlog: arrivals admitted but not yet taken by
	// the consumer. Zero defaults to 256. An arrival that finds the backlog
	// at the bound waits for the consumer to take one.
	QueueDepth int
	// Seed does nothing.
	//
	// frozen: read only by benchmark/ (ROADMAP 21)
	Seed int64
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
	// Degraded is 1 when the engine failed, else 0.
	Degraded int
}

// ShardStatus is the engine's final report.
type ShardStatus struct {
	Shard    int   `json:"shard"`
	Consumed int64 `json:"consumed"`
	Windows  int   `json:"windows"`
	// Restarts is always 0: a failed engine degrades.
	//
	// frozen: read only by benchmark/ (ROADMAP 21)
	Restarts int64 `json:"restarts"`
	// Overflow is always 0: the queue holds no more than the backlog bound.
	//
	// frozen: read only by benchmark/ (ROADMAP 21)
	Overflow  int64  `json:"overflow"`
	Degraded  bool   `json:"degraded"`
	Suspended bool   `json:"suspended,omitempty"`
	Err       string `json:"err,omitempty"`
}

// Supervisor journal payloads. Field order fixes the byte layout.
type shardsStartEvent struct {
	Shards     int `json:"shards"`
	QueueDepth int `json:"queue_depth"`
}

type shardDegradedEvent struct {
	Shard int    `json:"shard"`
	Err   string `json:"err"`
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
	Observed int64 `json:"observed"`
	Windows  int64 `json:"windows"`
}

// Supervisor runs one engine. Ingest and Close must be called from a single
// goroutine; everything else is internal.
type Supervisor struct {
	opts   Options
	tel    *telemetry.Telemetry
	p      *proc
	closed bool
}

// NewSupervisor starts the supervised engine. Close finishes the run. A
// plan rtec.CheckStreamOptions refuses starts nothing.
func NewSupervisor(eng *rtec.Engine, opts Options) (*Supervisor, error) {
	// Refuse a plan the engine would refuse before a resume touches the
	// journal file.
	if err := rtec.CheckStreamOptions(opts.Stream); err != nil {
		return nil, err
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 256
	}
	if opts.Resume && opts.Stream.CheckpointPath == "" {
		return nil, fmt.Errorf("shard: Resume needs a checkpoint path to restore from")
	}
	s := &Supervisor{opts: opts, tel: opts.Telemetry}
	s.describeMetrics()
	p := &proc{
		sup:       s,
		mDepth:    s.tel.Gauge("rtec.shard.queue.depth"),
		mConsumed: s.tel.Gauge("rtec.shard.consumed"),
		mWindows:  s.tel.Gauge("rtec.shard.windows"),
	}
	p.cond = sync.NewCond(&p.mu)
	var (
		cp   *rtec.Checkpoint
		info journal.RecoverInfo
		out  io.Writer
		err  error
	)
	if opts.JournalFor != nil {
		out = opts.JournalFor(0)
	}
	if opts.Resume {
		if cp, err = s.loadResume(); err == nil && out != nil {
			info, err = s.cutJournal(out, cp)
		}
		if err != nil {
			return nil, err
		}
	}
	ro := opts.Stream
	ro.CheckpointPath = s.checkpointPath()
	if out != nil {
		ro.Journal = journal.NewWriterResumed(&journalBuffer{out: out}, opts.JournalOpts, info)
	}
	if cp != nil {
		p.runner, err = eng.ResumeStreamRunner(cp, ro, p.deliverHook)
		p.delivered, p.skip = cp.Windows, cp.Consumed
	} else {
		p.runner, err = eng.NewStreamRunner(ro, p.deliverHook)
	}
	if err != nil {
		return nil, fmt.Errorf("shard 0: %w", err)
	}
	s.journalEvent("shards_start", shardsStartEvent{Shards: 1, QueueDepth: opts.QueueDepth})
	s.p = p
	go p.run()
	return s, nil
}

// loadResume loads the checkpoint a resumed engine continues from. No
// checkpoint file starts fresh — legal when the previous process ended
// before the engine ever checkpointed; an empty snapshot (nothing consumed,
// nothing delivered) also starts fresh, so the run_start record is
// journalled on the first ingest exactly as an uninterrupted run would. A
// file that does not load fails the resume naming it.
func (s *Supervisor) loadResume() (*rtec.Checkpoint, error) {
	path := s.checkpointPath()
	if _, err := os.Stat(path); err != nil {
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

// cutJournal cuts the engine journal back to the record the resume
// checkpoint covers — all of it without one: every record past it was
// journalled by arrivals the resumed engine processes again. A journal that
// ends before that record lost records the checkpoint covers; one whose cut
// suffix holds two checkpoint records lost a generation that had reached the
// disk (a generation's record reaches the file only after the previous
// generation's write completed). Either fails the resume.
func (s *Supervisor) cutJournal(out io.Writer, cp *rtec.Checkpoint) (journal.RecoverInfo, error) {
	f, ok := out.(*os.File)
	if !ok {
		return journal.RecoverInfo{}, fmt.Errorf("shard 0 resume: the engine journal is not a file to continue")
	}
	var through int64
	if cp != nil {
		through = cp.JournalSeq
	}
	info, err := journal.Cut(f.Name(), through)
	switch {
	case err != nil:
		return info, fmt.Errorf("shard 0 resume: journal %s: %w", f.Name(), err)
	case info.LastSeq < through && !info.Capped:
		return info, fmt.Errorf("shard 0 resume: journal %s ends at record %d, but checkpoint %s covers records through %d",
			f.Name(), info.LastSeq, s.checkpointPath(), through)
	case info.Cut["checkpoint"] > 1:
		return info, fmt.Errorf("shard 0 resume: journal %s records %d checkpoint generations past checkpoint %s: a generation that reached the disk is missing",
			f.Name(), info.Cut["checkpoint"], s.checkpointPath())
	}
	return info, nil
}

func (s *Supervisor) describeMetrics() {
	if s.tel == nil || s.tel.Registry == nil {
		return
	}
	reg := s.tel.Registry
	reg.Describe("rtec.shard.degraded", "1 once the engine has failed.")
	reg.Describe("rtec.shard.queue.depth", "Backlog of the ingest queue: arrivals admitted, not yet taken by the engine.")
	reg.Describe("rtec.shard.consumed", "Arrivals the engine has fully processed.")
	reg.Describe("rtec.shard.windows", "Windows the engine has delivered at least once.")
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
	p.end(false)
	st := ShardStatus{Degraded: p.degraded}
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
		Shards: 1, Degraded: res.Degraded,
		Observed: res.Stats.Observed, Windows: int64(st.Windows),
	})
	return res, err
}

// Suspend parks the runtime for a graceful cross-process restart: the
// engine finishes the arrivals it has already admitted, flushes its journal
// and writes a suspend checkpoint at that boundary.
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
	p.end(true)
	st := ShardStatus{Degraded: p.degraded, Suspended: p.suspended}
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
