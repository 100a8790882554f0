package rtec

import (
	"errors"
	"fmt"

	"rtecgen/internal/stream"
)

// StreamRunner is the streaming engine's one loop, and the supervisor's
// seam. It accepts one arrival at a time (Ingest), admits it through the
// bounded-delay reorder buffer, delivers windows and revises the ones late
// arrivals marked, checkpoints on the configured cadence, and produces the
// amalgamated result on Finish;
// RunStream is a runner fed a complete arrival-ordered slice. The supervised
// runtime (internal/shard) feeds the daemon's stream through one runner; a
// runner is not safe for concurrent use.
//
// A runner built with NewStreamRunner never sees the whole stream, so the run
// geometry cannot be derived from it: StreamOptions.Start and End must be
// set explicitly. Every runner over the same explicit bounds plans the
// identical window sequence, which is what lets a resumed runner continue a
// checkpoint.
type StreamRunner struct {
	st       *streamRun
	finished bool
}

// NewStreamRunner plans an incremental streaming run. fn (which may be nil)
// receives window deliveries and revisions exactly as in RunStream.
func (e *Engine) NewStreamRunner(opts StreamOptions, fn func(WindowResult) error) (*StreamRunner, error) {
	if opts.Start == 0 && opts.End == 0 {
		return nil, errUnbounded
	}
	r, _, err := e.newStreamRunner(nil, opts, fn)
	return r, err
}

var errUnbounded = errors.New("rtec: incremental streaming needs explicit RunOptions.Start/End bounds")

// CheckStreamOptions reports whether NewStreamRunner accepts opts, without
// building a runner: explicit Start/End bounds and what planStream checks.
// A caller that starts runners later, on its own goroutine (the shard
// supervisor), refuses a bad plan with it before any of them starts.
func CheckStreamOptions(opts StreamOptions) error {
	if opts.Start == 0 && opts.End == 0 {
		return errUnbounded
	}
	_, _, err := planStream(nil, opts)
	return err
}

// ResumeStreamRunner rebuilds a runner from a loaded checkpoint — the one
// resume path, taken by a resumed supervised engine. It journals nothing of
// the restore, not even run_start: the caller continues the journal cut back
// to cp.JournalSeq, so a resumed run is invisible in the audit trail and the
// journal stays byte-identical to an uninterrupted run's. The caller must
// re-Ingest the arrivals from cp.Consumed onward in the original order.
func (e *Engine) ResumeStreamRunner(cp *Checkpoint, opts StreamOptions, fn func(WindowResult) error) (*StreamRunner, error) {
	r, err := e.NewStreamRunner(opts, fn)
	if err != nil {
		return nil, err
	}
	if err := r.st.restore(cp); err != nil {
		r.Abort()
		return nil, err
	}
	r.st.ranStart = true
	e.opts.Telemetry.Counter("rtec.checkpoint.restores").Inc()
	return r, nil
}

// Ingest feeds one arrival through admission, marking, revision, window
// emission and checkpointing. The first call journals the run_start record.
func (r *StreamRunner) Ingest(e stream.Event) error {
	if r.finished {
		return fmt.Errorf("rtec: Ingest after Finish")
	}
	if err := r.st.journalRunStart(); err != nil {
		return err
	}
	return r.st.ingest(e)
}

// Finish ends the stream: the windows the frontier never reached are
// evaluated over everything still buffered (nothing in flight is dropped),
// the run_end record is journalled, and the amalgamated result returned.
func (r *StreamRunner) Finish() (*StreamResult, error) {
	if r.finished {
		return nil, fmt.Errorf("rtec: Finish called twice")
	}
	r.finished = true
	defer r.st.span.End()
	if err := r.st.journalRunStart(); err != nil {
		return nil, err
	}
	return r.st.finish()
}

// Suspend parks the runner at the current arrival boundary for a graceful
// drain: it writes a suspend checkpoint (StreamOptions.CheckpointPath must
// be set) without counting it as a cadence checkpoint or journalling a
// record, then releases the runner. A runner resumed from that snapshot and
// fed the remaining arrivals produces output byte-identical to an
// uninterrupted run.
func (r *StreamRunner) Suspend() error {
	if r.finished {
		return fmt.Errorf("rtec: Suspend after Finish")
	}
	if err := r.st.writeSuspendCheckpoint(); err != nil {
		return err
	}
	r.finished = true
	r.st.span.End()
	return nil
}

// Abort releases the runner's telemetry span without finishing the run,
// after a crash or kill; the runner is dead afterwards. It waits for the
// checkpoint write in flight, and drops its error: a caller that resumes
// from the checkpoint after Abort reads whatever that write left.
func (r *StreamRunner) Abort() {
	r.st.writer.wait()
	if r.finished {
		return
	}
	r.finished = true
	r.st.span.End()
}

// Consumed returns how many arrivals have been fully processed — the replay
// cursor a resumed runner continues from.
func (r *StreamRunner) Consumed() int { return r.st.consumed }

// Windows returns how many windows have been delivered at least once.
func (r *StreamRunner) Windows() int { return r.st.emitted }
