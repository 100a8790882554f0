package rtec

import (
	"errors"
	"fmt"

	"rtecgen/internal/intervals"
	"rtecgen/internal/lang"
	"rtecgen/internal/stream"
)

// StreamRunner is the streaming engine's one loop, and the shard-service
// seam. It accepts one arrival at a time (Ingest), admits it through the
// bounded-delay reorder buffer, delivers windows and revises the ones late
// arrivals marked, checkpoints on the configured cadence, and produces the
// amalgamated result on Finish;
// RunStream is a runner fed a complete arrival-ordered slice. The supervised
// shard runtime (internal/shard) feeds each shard's entity partition through
// its own runner; a runner is not safe for concurrent use.
//
// A runner built with NewStreamRunner never sees the whole stream, so the run
// geometry cannot be derived from it: StreamOptions.Start and End must be
// set explicitly. Every runner over the same explicit bounds plans the
// identical window sequence, which is what lets per-shard results merge
// deterministically.
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
// A caller that starts several runners on one plan (the shard supervisor)
// refuses a bad plan with it before any of them starts.
func CheckStreamOptions(opts StreamOptions) error {
	if opts.Start == 0 && opts.End == 0 {
		return errUnbounded
	}
	_, _, err := planStream(nil, opts)
	return err
}

// ResumeStreamRunner rebuilds a runner from a loaded checkpoint — the one
// resume path, taken by a restarted or resumed shard. It journals nothing
// of the restore, not even run_start: the shard runtime stages journal
// records and rolls the uncommitted suffix back before replaying, so a
// crash-and-restart is invisible in the audit trail and the journal stays
// byte-identical to a fault-free run. The caller must re-Ingest the
// arrivals from cp.Consumed onward in the original order.
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

// Checkpoints returns how many snapshots this run has written (including
// those counted by the checkpoint it was resumed from).
func (r *StreamRunner) Checkpoints() int64 { return r.st.stats.Checkpoints }

// EventEntity is the consistent entity key of an arrival: the hash of the
// event's first argument (e.g. the vessel of a change_in_speed_start), or of
// the whole atom for a zero-arity event. The shard supervisor routes arrivals
// with it, so an entity's events always land in one partition.
func EventEntity(ev stream.Event) uint64 {
	if len(ev.Atom.Args) > 0 {
		return lang.Hash(ev.Atom.Args[0], nil)
	}
	return lang.Hash(ev.Atom, nil)
}

// MergeRecognitions unions per-partition recognitions into one result, as
// if a single engine had recognised the concatenated streams: intervals of
// the same fluent-value pair are unioned, warnings are deduplicated in
// order, and the bounds are the widest seen. The shard supervisor merges
// its entity partitions through this; it is exact when every fluent's
// intervals come from one partition (entity-local rules), the same locality
// assumption the PR 5 in-window entity sharding relies on.
func MergeRecognitions(rs ...*Recognition) *Recognition {
	out := newRecognition(0, 0)
	var warnings []Warning
	for _, rec := range rs {
		if rec == nil {
			continue
		}
		if out.Start == 0 && out.End == 0 || rec.Start < out.Start {
			out.Start = rec.Start
		}
		if rec.End > out.End {
			out.End = rec.End
		}
		for key, ivals := range rec.byKey {
			out.byKey[key] = intervals.Union(out.byKey[key], ivals)
			if _, ok := out.fvps[key]; !ok {
				out.fvps[key] = rec.fvps[key]
			}
		}
		warnings = append(warnings, rec.Warnings...)
	}
	out.Warnings = uniqueWarnings(warnings)
	return out
}
