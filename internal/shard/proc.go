package shard

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"rtecgen/internal/rtec"
	"rtecgen/internal/stream"
	"rtecgen/internal/telemetry"
)

// errSuspend is the sentinel next returns once a suspend was requested and
// the queue backlog is drained; errParked is what consume returns after the
// runner's state reached disk, telling run to stop without a result.
var (
	errSuspend = errors.New("shard suspend requested")
	errParked  = errors.New("shard parked")
)

// ErrDegraded reports an arrival offered to a failed engine: it was not
// admitted, and retrying cannot succeed within this process.
var ErrDegraded = errors.New("shard degraded")

// proc is the supervised engine: a bounded ingest queue and a consumer
// goroutine driving one engine runner over it.
type proc struct {
	sup    *Supervisor
	runner *rtec.StreamRunner

	mu   sync.Mutex
	cond *sync.Cond
	// Queue state (guarded by mu). q is the backlog: arrivals admitted but
	// not yet taken by the consumer.
	q         []stream.Event
	closed    bool
	done      bool
	degraded  bool
	suspend   bool // drain the backlog, then park instead of waiting
	suspended bool // parked: state is on disk, no result produced
	failErr   error
	// skip is the cross-process resume cursor: the first skip arrivals of
	// the re-fed stream were consumed by the checkpoint the engine resumed
	// from, so push drops them instead of queueing them.
	skip int

	// Consumer-side state, owned by the consumer goroutine until done.
	delivered int // absolute count of first-time window deliveries
	result    *rtec.StreamResult
	parkedAt  int // arrivals consumed when the engine parked

	// Hoisted instruments.
	mDepth, mConsumed, mWindows *telemetry.Gauge
}

// next blocks until an arrival is available, the queue is closed and
// drained (ok=false, nil error), or a suspend parks the engine.
func (p *proc) next() (stream.Event, bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if len(p.q) > 0 {
			e := p.q[0]
			p.q[0] = stream.Event{}
			p.q = p.q[1:]
			p.mDepth.Set(int64(len(p.q)))
			p.cond.Broadcast() // the backlog shrank: a blocked producer may run
			return e, true, nil
		}
		if p.closed {
			return stream.Event{}, false, nil
		}
		// A suspend parks only once the backlog is drained: the arrival
		// check above wins, so everything already admitted is processed
		// (and checkpointed) before the engine stops.
		if p.suspend {
			return stream.Event{}, false, errSuspend
		}
		p.cond.Wait()
	}
}

// push admits one arrival, blocking while the backlog is at QueueDepth, or
// refuses it with ErrDegraded once the engine is dead — blocking on a dead
// engine would hang forever. Only the supervisor's ingest goroutine calls it.
func (p *proc) push(e stream.Event) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.skip > 0 {
		p.skip--
		return nil
	}
	for !p.degraded && len(p.q) >= p.sup.opts.QueueDepth {
		// The consumer is really behind: wait for it to take an arrival
		// (next) or to die (degrade). A consumer that wedges blocks this
		// wait; nothing here kills it.
		p.cond.Wait()
	}
	if p.degraded {
		return fmt.Errorf("shard 0 %w: %v", ErrDegraded, p.failErr)
	}
	p.q = append(p.q, e)
	p.mDepth.Set(int64(len(p.q)))
	p.cond.Broadcast()
	return nil
}

// end marks the end of input and waits until the consumer is done (it
// broadcasts the cond when it is): it drains the admitted backlog, then
// finishes the run — or, with suspend set, parks at that arrival boundary —
// unless it degraded first.
func (p *proc) end(suspend bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed, p.suspend = !suspend, suspend
	p.cond.Broadcast()
	for !p.done {
		p.cond.Wait()
	}
}

// deliverHook is the per-window callback wired into the engine runner: it
// hands the delivery (or revision) to the supervisor-level observer, which
// must not block (see Options.OnWindow), and advances the absolute delivery
// counter.
func (p *proc) deliverHook(wr rtec.WindowResult) error {
	if h := p.sup.opts.OnWindow; h != nil {
		h(0, wr)
	}
	if wr.Revision == 0 {
		p.delivered++
	}
	return nil
}

// run drives the runner until the stream ends or the engine parks. Any
// failure — a panic in the engine or the observer, a checkpoint write error
// — degrades the engine at once: it is deterministic, so replaying the same
// arrivals would raise the same fault again. Recovery is a new process
// resuming from the last durable checkpoint (Options.Resume).
func (p *proc) run() {
	err := p.consume()
	if err != nil && !errors.Is(err, errParked) {
		p.degrade(err)
		return
	}
	p.mu.Lock()
	p.done = true
	p.suspended = err != nil
	p.cond.Broadcast()
	p.mu.Unlock()
}

// consume feeds the queue to the runner and finishes or parks it. Panics
// surface as errors.
func (p *proc) consume() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("shard 0 panicked: %v", r)
		}
	}()
	r := p.runner
	defer r.Abort() // no-op once Finish or Suspend ran
	for {
		e, ok, err := p.next()
		if err != nil {
			// A graceful cross-process drain: the engine flushes its journal
			// and writes a suspend checkpoint at this arrival boundary, from
			// which a resumed process regenerates nothing twice.
			p.parkedAt = r.Consumed()
			if err := r.Suspend(); err != nil {
				return fmt.Errorf("shard 0 suspend: %w", err)
			}
			return errParked
		}
		if !ok {
			break
		}
		if err := r.Ingest(e); err != nil {
			return err
		}
		p.mConsumed.Set(int64(r.Consumed()))
		p.mWindows.Set(int64(r.Windows()))
	}
	res, err := r.Finish()
	if err != nil {
		return err
	}
	p.mWindows.Set(int64(r.Windows()))
	p.mConsumed.Set(res.Stats.Observed)
	p.result = res
	return nil
}

// degrade marks the engine failed: the queue refuses further arrivals,
// /healthz reports it, and Close fails the run. The record and the gauge
// come first: once done is set, Close may append shards_end and its caller
// read the lifecycle journal.
func (p *proc) degrade(err error) {
	p.sup.tel.Gauge("rtec.shard.degraded").Set(1)
	p.sup.journalEvent("shard_degraded", shardDegradedEvent{Err: err.Error()})
	p.sup.tel.Logger().Error("shard degraded", "component", "shard", "err", err)
	p.mu.Lock()
	p.degraded = true
	p.done = true
	p.failErr = err
	p.cond.Broadcast()
	p.mu.Unlock()
}

// journalBuffer holds the engine's journal records until the engine flushes
// them (journal.Writer.Flush) — before each checkpoint generation's write
// starts, before a suspend checkpoint and at the end of the run — and then
// hands them to the file in one write. A kill loses only records past the
// last generation on disk, which the resumed engine journals again.
type journalBuffer struct {
	out io.Writer
	buf []byte
}

func (b *journalBuffer) Write(p []byte) (int, error) {
	b.buf = append(b.buf, p...)
	return len(p), nil
}

func (b *journalBuffer) Flush() error {
	if len(b.buf) == 0 {
		return nil
	}
	_, err := b.out.Write(b.buf)
	b.buf = b.buf[:0]
	return err
}
