package shard

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"rtecgen/internal/rtec"
	"rtecgen/internal/stream"
	"rtecgen/internal/telemetry"
)

// errSuspend is the sentinel next returns once a suspend was requested and
// the queue backlog is drained; errParked is what attempt returns after the
// runner's state reached disk, telling the run loop to stop without a
// result and without a restart.
var (
	errSuspend = errors.New("shard suspend requested")
	errParked  = errors.New("shard parked")
)

// ErrDegraded reports an arrival routed to a permanently failed shard: it
// was not admitted, and retrying cannot succeed within this run.
var ErrDegraded = errors.New("shard degraded")

// permanentError marks a failure no restart can fix (journal sink broken,
// both checkpoint generations unusable past the acked queue prefix, ...).
type permanentError struct{ err error }

func (p permanentError) Error() string { return p.err.Error() }
func (p permanentError) Unwrap() error { return p.err }

// proc is one supervised shard: a bounded ingest queue with
// checkpoint-acked retention, a consumer goroutine driving an incremental
// engine runner over the queue, a staged journal committing one checkpoint
// generation behind, and the crash-recovery state that makes restarts
// byte-invisible.
type proc struct {
	id  int
	sup *Supervisor

	mu   sync.Mutex
	cond *sync.Cond
	// Queue state (guarded by mu). q holds the retained arrivals; base is
	// the absolute index of q[0]. The prefix below the consumer cursor
	// `taken` is retention, kept for replay until a checkpoint generation
	// acks it; the rest is backlog, which is what admission bounds.
	q         []stream.Event
	base      int
	taken     int // absolute index of the next arrival the consumer takes
	closed    bool
	done      bool
	degraded  bool
	suspend   bool // drain the backlog, then park instead of waiting
	suspended bool // parked: state is on disk, no result produced
	failErr   error
	overflow  int64 // admissions made with retention at or past the depth bound
	// skipBelow is the cross-process resume cursor: arrivals below this
	// absolute index were consumed by the previous process's checkpoint, so
	// push advances base past them instead of buffering a replayed prefix
	// the consumer will never need.
	skipBelow int
	skipped   int64

	// Consumer-side state (owned by the consumer goroutine and, between
	// attempts, the run loop; never touched by the producer).
	stage        *stagedJournal
	prevB, lastB stageBoundary
	ckptSeen     int64
	delivered    int // absolute count of first-time window deliveries
	restarts     int64
	result       *rtec.StreamResult
	resumeCkpt   *rtec.Checkpoint // cross-process resume snapshot, if any
	parkedAt     int              // arrivals consumed when the shard parked

	// Hoisted per-shard instruments.
	mDepth, mConsumed, mWindows, mDegraded *telemetry.Gauge
	mRestarts                              *telemetry.Counter
}

// backlog is the number of arrivals admitted but not yet taken by the
// consumer. Caller holds mu.
func (p *proc) backlog() int { return p.base + len(p.q) - p.taken }

// next blocks until an arrival is available at the consumer cursor, the
// queue is closed and drained (ok=false, nil error), or a suspend parks the
// shard.
func (p *proc) next() (stream.Event, bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.backlog() > 0 {
			e := p.q[p.taken-p.base]
			p.taken++
			p.cond.Broadcast() // the backlog shrank: a blocked producer may run
			return e, true, nil
		}
		if p.closed {
			return stream.Event{}, false, nil
		}
		// A suspend parks only once the backlog is drained: the arrival
		// checks above win, so everything already admitted is processed
		// (and checkpointed) before the shard stops.
		if p.suspend {
			return stream.Event{}, false, errSuspend
		}
		p.cond.Wait()
	}
}

// ack drops the queue prefix below the absolute index upto — called when a
// checkpoint generation commits, making replay below it unnecessary.
func (p *proc) ack(upto int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if upto > p.base {
		n := upto - p.base
		if n > len(p.q) {
			n = len(p.q)
		}
		p.q = append(p.q[:0], p.q[n:]...)
		p.base += n
	}
	p.mDepth.Set(int64(len(p.q)))
	p.cond.Broadcast()
}

// push admits one arrival, blocking while the backlog is at QueueDepth, or
// refuses it with ErrDegraded once the shard is dead — blocking on a dead
// shard would hang forever. Only the supervisor's ingest goroutine calls it.
// QueueDepth bounds the backlog — what the consumer has still to take — not
// the arrivals retained behind its cursor for checkpoint replay: those are
// bounded by the checkpoint interval, and no admission verdict can shrink
// them.
func (p *proc) push(e stream.Event) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Replayed prefix of a cross-process resume: the checkpoint already
	// covers this arrival, so account for its queue position without
	// buffering it.
	if p.base+len(p.q) < p.skipBelow {
		p.base++
		p.skipped++
		return nil
	}
	depth := p.sup.opts.QueueDepth
	for !p.degraded && p.backlog() >= depth {
		// The consumer is really behind: wait for it to take an arrival
		// (next) or to die for good (degrade). A consumer that wedges
		// blocks this wait; nothing here kills it.
		p.cond.Wait()
	}
	if p.degraded {
		return fmt.Errorf("shard %d %w: %v", p.id, ErrDegraded, p.failErr)
	}
	if len(p.q) >= depth {
		p.overflow++
	}
	p.q = append(p.q, e)
	p.mDepth.Set(int64(len(p.q)))
	p.cond.Broadcast()
	return nil
}

// closeQueue marks end of input.
func (p *proc) closeQueue() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// suspendQueue asks the shard to drain its admitted backlog and then park
// at a clean arrival boundary instead of waiting for more input.
func (p *proc) suspendQueue() {
	p.mu.Lock()
	p.suspend = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// deliverHook is the per-window callback wired into the shard's engine
// runner: it fans the delivery out to the observer and advances the
// absolute delivery counter.
func (p *proc) deliverHook(wr rtec.WindowResult) error {
	// Fan deliveries (and revisions) out to the supervisor-level observer.
	// Crash replays re-deliver replayed windows, so observers see
	// at-least-once semantics; they must not block (see Options.OnWindow).
	if h := p.sup.opts.OnWindow; h != nil {
		h(p.id, wr)
	}
	if wr.Revision == 0 {
		p.delivered++
	}
	return nil
}

// buildRunner constructs the engine runner for one attempt: a fresh run on
// the first attempt (or when nothing was ever checkpointed), otherwise a
// resume from the best usable checkpoint generation, with the staged
// journal rolled back to the matching boundary so the replay regenerates
// byte-identical records.
func (p *proc) buildRunner() (*rtec.StreamRunner, error) {
	opts := p.sup.runnerOpts(p.id, p.stage.writer())
	if p.ckptSeen == 0 {
		// Cross-process resume: continue from the previous process's suspend
		// (or last cadence) checkpoint. Both staged generations were pinned
		// to its boundary at construction, so an in-process crash before the
		// first new checkpoint rolls back to it and lands here again.
		if p.resumeCkpt != nil {
			if err := p.stage.rollbackTo(p.lastB); err != nil {
				return nil, permanentError{err}
			}
			r, err := p.sup.eng.ResumeStreamRunner(p.resumeCkpt, opts, p.deliverHook)
			if err != nil {
				return nil, permanentError{err}
			}
			p.delivered = p.resumeCkpt.Windows
			return r, nil
		}
		if err := p.stage.rollbackTo(p.prevB); err != nil {
			return nil, permanentError{err}
		}
		r, err := p.sup.eng.NewStreamRunner(opts, p.deliverHook)
		if err != nil {
			return nil, permanentError{err}
		}
		p.delivered = 0
		return r, nil
	}
	cp, from, err := rtec.LoadCheckpointWithFallback(opts.CheckpointPath)
	if err != nil {
		return nil, permanentError{fmt.Errorf("shard %d: %w", p.id, err)}
	}
	var b stageBoundary
	switch cp.Consumed {
	case p.lastB.consumed:
		b = p.lastB
	case p.prevB.consumed:
		b = p.prevB
		p.lastB = p.prevB
		p.sup.tel.Counter("rtec.checkpoint.fallbacks").Inc()
	default:
		return nil, permanentError{fmt.Errorf("shard %d: checkpoint %s consumed %d matches no staged generation (%d or %d)",
			p.id, from, cp.Consumed, p.prevB.consumed, p.lastB.consumed)}
	}
	if err := p.stage.rollbackTo(b); err != nil {
		return nil, permanentError{err}
	}
	r, err := p.sup.eng.ResumeStreamRunner(cp, opts, p.deliverHook)
	if err != nil {
		return nil, permanentError{err}
	}
	p.delivered = cp.Windows
	return r, nil
}

// attempt runs the shard until the queue drains or something goes wrong.
// Panics (the engine's or the observer's) surface as errors for the run
// loop to restart.
func (p *proc) attempt() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("shard %d panicked: %v", p.id, r)
		}
	}()
	runner, err := p.buildRunner()
	if err != nil {
		return err
	}
	defer runner.Abort() // no-op once Finish ran
	// Align the checkpoint watermark with the runner's actual generation:
	// after a previous-generation fallback the resumed run re-writes
	// checkpoints the crashed attempt already saw, and each re-write must
	// re-run the commit protocol (idempotently) to keep the staged
	// boundaries in step.
	p.ckptSeen = runner.Checkpoints()
	p.syncCursor(runner.Consumed())
	for {
		e, ok, err := p.next()
		if err != nil {
			if errors.Is(err, errSuspend) {
				return p.park(runner)
			}
			return err
		}
		if !ok {
			break
		}
		if err := runner.Ingest(e); err != nil {
			return err
		}
		p.mConsumed.Set(int64(runner.Consumed()))
		p.mWindows.Set(int64(runner.Windows()))
		if runner.Checkpoints() > p.ckptSeen {
			p.ckptSeen = runner.Checkpoints()
			if err := p.onCheckpoint(runner); err != nil {
				return err
			}
		}
	}
	res, err := runner.Finish()
	if err != nil {
		return err
	}
	if err := p.stage.commitAll(); err != nil {
		return permanentError{err}
	}
	p.mWindows.Set(int64(runner.Windows()))
	p.mConsumed.Set(int64(runner.Consumed()))
	p.result = res
	return nil
}

// park suspends the runner for a graceful cross-process drain: the engine
// writes a suspend checkpoint at its current arrival boundary and the
// staged journal commits everything — every staged record was generated by
// an arrival the checkpoint covers, so nothing committed can ever need a
// rollback, and the resumed process regenerates nothing twice.
func (p *proc) park(runner *rtec.StreamRunner) error {
	consumed, windows := runner.Consumed(), runner.Windows()
	if err := runner.Suspend(); err != nil {
		return permanentError{fmt.Errorf("shard %d suspend: %w", p.id, err)}
	}
	if err := p.stage.commitAll(); err != nil {
		return permanentError{err}
	}
	p.mConsumed.Set(int64(consumed))
	p.mWindows.Set(int64(windows))
	p.parkedAt = consumed
	return errParked
}

// syncCursor points the consumer cursor at the absolute replay position.
func (p *proc) syncCursor(at int) {
	p.mu.Lock()
	p.taken = at
	p.mu.Unlock()
}

// onCheckpoint runs the generation-lagged commit protocol after the engine
// wrote a checkpoint: flush the staged journal through the PREVIOUS
// checkpoint's boundary, ack the queue below it, and shift the boundaries.
func (p *proc) onCheckpoint(runner *rtec.StreamRunner) error {
	if err := p.stage.commitThrough(p.lastB); err != nil {
		return permanentError{err}
	}
	p.ack(p.lastB.consumed)
	p.prevB = p.lastB
	p.lastB = p.stage.boundary(runner.Consumed())
	return nil
}

// run is the shard's supervision loop: attempts, restarts with capped
// jittered backoff, and degradation once restarts are exhausted or the
// failure is permanent.
func (p *proc) run() {
	rng := rand.New(rand.NewSource(seedFor(p.sup.opts.Seed, fmt.Sprintf("shard-%d", p.id))))
	for {
		err := p.attempt()
		if err == nil {
			p.mu.Lock()
			p.done = true
			p.cond.Broadcast()
			p.mu.Unlock()
			p.mConsumed.Set(int64(p.result.Stats.Observed))
			return
		}
		if errors.Is(err, errParked) {
			p.mu.Lock()
			p.done = true
			p.suspended = true
			p.cond.Broadcast()
			p.mu.Unlock()
			return
		}
		var perm permanentError
		permanent := errors.As(err, &perm)
		if permanent || p.restarts >= int64(p.sup.opts.MaxRestarts) {
			p.degrade(err, permanent)
			return
		}
		p.mu.Lock()
		p.restarts++
		p.mu.Unlock()
		p.mRestarts.Inc()
		p.sup.tel.Counter("rtec.shard.restarts").Inc()
		p.sup.journalEvent("shard_restart", shardRestartEvent{
			Shard: p.id, Attempt: p.restarts, Reason: err.Error(),
			Consumed: p.lastB.consumed, Windows: p.delivered,
		})
		p.sup.tel.Logger().Warn("shard restarting",
			"component", "shard", "shard", p.id, "attempt", p.restarts, "err", err)
		p.sup.clk.Sleep(backoff(rng, p.restarts))
	}
}

// degrade marks the shard permanently failed: the queue refuses further
// arrivals, /healthz reports it, and Close fails the run.
func (p *proc) degrade(err error, permanent bool) {
	p.mu.Lock()
	p.degraded = true
	p.done = true
	p.failErr = err
	p.cond.Broadcast()
	p.mu.Unlock()
	p.mDegraded.Set(1)
	p.sup.tel.Gauge("rtec.shard.degraded").Add(1)
	reason := "restarts exhausted"
	if permanent {
		reason = "permanent failure"
	}
	p.sup.journalEvent("shard_degraded", shardDegradedEvent{
		Shard: p.id, Restarts: p.restarts, Reason: reason, Err: err.Error(),
	})
	p.sup.tel.Logger().Error("shard degraded",
		"component", "shard", "shard", p.id, "restarts", p.restarts, "err", err)
}

// seedFor derives a per-shard rng seed from the run seed and the shard
// name, fnv-64a over "seed|name" — so every shard's backoff jitter is
// deterministic and distinct.
func seedFor(seed int64, name string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", seed, name)
	return int64(h.Sum64())
}

// backoff is the capped full-jitter restart delay: base 10ms doubling per
// attempt, capped at 1s, jittered over [half, full).
func backoff(rng *rand.Rand, attempt int64) time.Duration {
	d := 10 * time.Millisecond << uint(attempt-1)
	if d > time.Second || d <= 0 {
		d = time.Second
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(half)))
}
