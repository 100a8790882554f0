// Package serve is the long-lived recognition daemon behind cmd/rtecd: an
// HTTP front-end over the supervised shard runtime (internal/shard) that
// ingests NDJSON event streams, publishes window deliveries to subscribers,
// and survives both overload and termination.
//
// The lifecycle is a one-way state machine:
//
//	starting → ready → draining → suspended        (SIGTERM / Drain)
//	                 ↘ finishing → finished        (POST /finish)
//
// /healthz reports ready and finished as healthy and every other state as a
// 503, so load balancers stop routing the moment a drain begins.
//
// Overload protection is layered: request bodies are size-capped, the
// ingest queue is bounded (a full queue answers 429 with Retry-After
// immediately instead of holding the connection), the shard admission
// verdicts surface as 429 (queue full) and 503 (degraded shard), a request
// that waits longer than the ingest deadline gets 503 and may safely retry
// (the reorder buffer deduplicates re-sent events), and subscription
// buffers drop-with-counter rather than block the engine, evicting
// consumers that fall hopelessly behind.
//
// Draining is graceful: ingest stops (new requests get 503), the in-flight
// batch finishes, every shard processes its admitted backlog, writes a
// suspend checkpoint and commits its staged journal through it, subscribers
// are disconnected and the HTTP server drains under a deadline. A new
// process started with Resume and re-fed the same stream continues the run
// with output byte-identical to an uninterrupted one.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rtecgen/internal/clock"
	"rtecgen/internal/rtec"
	"rtecgen/internal/shard"
	"rtecgen/internal/shard/fault"
	"rtecgen/internal/stream"
	"rtecgen/internal/telemetry"
	"rtecgen/internal/telemetry/journal"
)

// Lifecycle states, in serve.state metric order.
const (
	stateStarting int32 = iota
	stateReady
	stateDraining
	stateSuspended
	stateFinishing
	stateFinished
)

var stateNames = [...]string{"starting", "ready", "draining", "suspended", "finishing", "finished"}

// Options configure a Daemon.
type Options struct {
	// Shards, Stream, JournalOpts, Overflow, Deadline, MaxRestarts, Seed,
	// Faults and Clock configure the underlying shard supervisor (see
	// shard.Options). Stream.CheckpointPath is required: the daemon parks
	// into it on drain. Stream.Start/End must bound the time-line (a daemon
	// cannot inspect the whole stream up front the way cmd/rtec does).
	Shards      int
	Stream      rtec.StreamOptions
	QueueDepth  int
	Overflow    shard.OverflowPolicy
	Deadline    time.Duration
	MaxRestarts int
	Seed        int64
	Faults      *fault.Plan

	// JournalPath, when non-empty, appends the supervisor lifecycle journal
	// there and shard k's byte-deterministic journal to "<path>.s<k>". With
	// Resume, existing files are validated, torn tails truncated, and the
	// writers continue them.
	JournalPath string
	JournalOpts journal.Options

	// Resume continues a run a previous process parked with Drain: shards
	// restore from their suspend checkpoints and the client re-POSTs the
	// same stream — the replayed prefix is skipped at admission.
	Resume bool

	// OutPath, when non-empty, receives the final recognition CSV on
	// /finish in addition to the response body.
	OutPath string

	// Lenient quarantines malformed NDJSON lines (counted in
	// stream.badrows) instead of rejecting the whole request with a
	// line-numbered 400.
	Lenient bool

	// IngestQueue bounds the batches queued for application; a full queue
	// answers 429 + Retry-After. Zero defaults to 16.
	IngestQueue int
	// IngestTimeout, RetryAfter, MaxBody, SubBuffer, SubEvict and
	// DrainTimeout have no rtecd flag: their zero-value defaults are the
	// daemon's constants, and the fields exist for tests to substitute
	// small values.
	//
	// IngestTimeout is the per-request application deadline; a batch still
	// queued or mid-apply when it passes gets 503 (safe to retry). Zero
	// defaults to 30s.
	IngestTimeout time.Duration
	// RetryAfter is the Retry-After hint on 429/503 responses. Zero
	// defaults to 1s.
	RetryAfter time.Duration
	// IngestDelay throttles application to one event per delay — an
	// overload drill used by tests and the CI burst gate. Zero is off.
	IngestDelay time.Duration
	// MaxBody caps an ingest request body. Zero defaults to 8 MiB.
	MaxBody int64

	// SubBuffer is each subscriber's delivery buffer; a full buffer drops
	// (serve.subs.dropped). Zero defaults to 64.
	SubBuffer int
	// SubEvict disconnects a subscriber after this many drops. Zero
	// defaults to 256.
	SubEvict int

	// DrainTimeout bounds the HTTP connection drain on shutdown. Zero
	// defaults to 5s.
	DrainTimeout time.Duration

	Clock     clock.Clock
	Telemetry *telemetry.Telemetry
}

// batch is one ingest request's parsed events queued for application. done
// is buffered so the pump can always report even after the request gave up;
// abandoned tells the pump not to start a batch whose requester has left.
type batch struct {
	events    stream.Stream
	done      chan error
	applied   int
	abandoned atomic.Bool
}

// Daemon is the long-lived recognition service. Construct with New, bind
// with Start, stop with Drain (graceful park) or a client's /finish.
type Daemon struct {
	eng  *rtec.Engine
	opts Options
	tel  *telemetry.Telemetry
	clk  clock.Clock
	sup  *shard.Supervisor
	srv  *telemetry.Server
	hub  *hub

	state atomic.Int32

	ingestMu     sync.RWMutex
	ingestClosed bool
	ingestCh     chan *batch
	pumpDone     chan struct{}

	jw        *journal.Writer // supervisor lifecycle journal
	jFiles    []*os.File      // every journal file, for the close-once
	jClose    sync.Once
	jCloseErr error

	drainOnce sync.Once
	drainDone chan struct{}
	drainSts  []shard.ShardStatus
	drainErr  error

	finishMu  sync.Mutex
	finishCSV []byte
	finishErr error

	mState, mIngestQueue, mSubsActive            *telemetry.Gauge
	mRequests, mEvents, mThrottled, mUnavailable *telemetry.Counter
	mTimeouts, mRejected, mBadRows               *telemetry.Counter
	mSubsDelivered, mSubsDropped, mSubsEvicted   *telemetry.Counter
	mPublished                                   *telemetry.Counter
}

// New builds the daemon: journals are opened (and, under Resume, recovered),
// the shard supervisor is started, and the HTTP surface is mounted on an
// embedded telemetry server — /metrics, /healthz and the pprof endpoints
// share the port with /ingest, /subscribe, /finish and /result. Call Start
// to bind; until then /ingest answers 503 ("starting").
func New(eng *rtec.Engine, opts Options) (*Daemon, error) {
	if opts.Stream.CheckpointPath == "" {
		return nil, fmt.Errorf("serve: Stream.CheckpointPath is required (the daemon parks into it on drain)")
	}
	if opts.IngestQueue <= 0 {
		opts.IngestQueue = 16
	}
	if opts.IngestTimeout <= 0 {
		opts.IngestTimeout = 30 * time.Second
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = time.Second
	}
	if opts.MaxBody <= 0 {
		opts.MaxBody = 8 << 20
	}
	if opts.SubBuffer <= 0 {
		opts.SubBuffer = 64
	}
	if opts.SubEvict <= 0 {
		opts.SubEvict = 256
	}
	if opts.DrainTimeout <= 0 {
		opts.DrainTimeout = 5 * time.Second
	}
	if opts.Clock == nil {
		opts.Clock = clock.Real()
	}
	d := &Daemon{
		eng: eng, opts: opts, tel: opts.Telemetry, clk: opts.Clock,
		ingestCh:  make(chan *batch, opts.IngestQueue),
		pumpDone:  make(chan struct{}),
		drainDone: make(chan struct{}),
	}
	d.describeMetrics()
	d.hub = newHub(d, opts.SubBuffer, opts.SubEvict)

	journalFor, journalInfoFor, err := d.openJournals()
	if err != nil {
		return nil, err
	}
	sup, err := shard.NewSupervisor(eng, shard.Options{
		Shards:         opts.Shards,
		Stream:         opts.Stream,
		JournalFor:     journalFor,
		JournalOpts:    opts.JournalOpts,
		JournalInfoFor: journalInfoFor,
		Resume:         opts.Resume,
		OnWindow:       d.hub.publish,
		Events:         d.jw,
		QueueDepth:     opts.QueueDepth,
		Overflow:       opts.Overflow,
		Deadline:       opts.Deadline,
		MaxRestarts:    opts.MaxRestarts,
		Seed:           opts.Seed,
		Faults:         opts.Faults,
		Clock:          opts.Clock,
		Telemetry:      opts.Telemetry,
	})
	if err != nil {
		d.closeJournals()
		return nil, err
	}
	d.sup = sup

	reg := (*telemetry.Registry)(nil)
	if d.tel != nil {
		reg = d.tel.Registry
	}
	d.srv = telemetry.NewServer(reg)
	d.srv.Ready("lifecycle", d.readyCheck)
	sup.RegisterHealth(d.srv)
	d.srv.Handle("/ingest", http.HandlerFunc(d.handleIngest))
	d.srv.Handle("/subscribe", http.HandlerFunc(d.handleSubscribe))
	d.srv.Handle("/finish", http.HandlerFunc(d.handleFinish))
	d.srv.Handle("/result", http.HandlerFunc(d.handleResult))
	go d.pump()
	return d, nil
}

// openJournals opens the lifecycle journal and the per-shard journal files,
// recovering existing ones under Resume: the lifecycle journal gets a
// journal_recovered marker (it is diagnostic, not byte-deterministic), the
// shard journals get none — their writers silently continue the committed
// sequence so the appended suffix keeps the files byte-identical to an
// uninterrupted run's.
func (d *Daemon) openJournals() (func(k int) io.Writer, func(k int) *journal.RecoverInfo, error) {
	if d.opts.JournalPath == "" {
		return nil, nil, nil
	}
	lf, jw, _, err := journal.Open(d.opts.JournalPath, d.opts.JournalOpts, d.opts.Resume, true)
	if err != nil {
		return nil, nil, err
	}
	d.jFiles = append(d.jFiles, lf)
	d.jw = jw

	shards := d.opts.Shards
	if shards <= 0 {
		shards = 1
	}
	files := make([]*os.File, shards)
	infos := make([]*journal.RecoverInfo, shards)
	for k := range files {
		f, _, info, err := journal.Open(fmt.Sprintf("%s.s%d", d.opts.JournalPath, k), d.opts.JournalOpts, d.opts.Resume, false)
		if err != nil {
			d.closeJournals()
			return nil, nil, err
		}
		d.jFiles = append(d.jFiles, f)
		files[k], infos[k] = f, info
	}
	journalFor := func(k int) io.Writer { return files[k] }
	journalInfoFor := func(k int) *journal.RecoverInfo { return infos[k] }
	return journalFor, journalInfoFor, nil
}

func (d *Daemon) closeJournals() error {
	d.jClose.Do(func() {
		for _, f := range d.jFiles {
			if err := f.Close(); err != nil && d.jCloseErr == nil {
				d.jCloseErr = err
			}
		}
	})
	return d.jCloseErr
}

// Start binds addr (port 0 picks a free port) and flips the daemon ready.
func (d *Daemon) Start(addr string) (string, error) {
	bound, err := d.srv.Start(addr)
	if err != nil {
		return "", err
	}
	if d.state.CompareAndSwap(stateStarting, stateReady) {
		d.mState.Set(int64(stateReady))
	}
	return bound, nil
}

// Addr returns the bound address after Start.
func (d *Daemon) Addr() string { return d.srv.Addr() }

// Handler exposes the daemon's HTTP surface for in-process tests. The
// daemon still starts in "starting"; tests that skip Start call Ready.
func (d *Daemon) Handler() http.Handler { return d.srv.Handler() }

// Ready flips a not-yet-started daemon ready without binding a port
// (in-process tests drive the Handler directly).
func (d *Daemon) Ready() {
	if d.state.CompareAndSwap(stateStarting, stateReady) {
		d.mState.Set(int64(stateReady))
	}
}

// State reports the lifecycle state name.
func (d *Daemon) State() string { return stateNames[d.state.Load()] }

// readyCheck is the "lifecycle" entry on /healthz: ready and finished are
// the healthy states; everything else answers 503 so load balancers stop
// routing the moment a drain or finish begins.
func (d *Daemon) readyCheck() error {
	switch s := d.state.Load(); s {
	case stateReady, stateFinished:
		return nil
	default:
		return fmt.Errorf("daemon is %s", stateNames[s])
	}
}

// pump applies queued batches to the supervisor in arrival order — the
// single-goroutine contract Supervisor.Ingest requires. Abandoned batches
// (requester timed out or disconnected before application began) are
// skipped whole, so "safe to retry" holds: either none of the batch was
// applied, or the retry's duplicates are deduplicated by the reorder
// buffer.
func (d *Daemon) pump() {
	defer close(d.pumpDone)
	for b := range d.ingestCh {
		d.mIngestQueue.Set(int64(len(d.ingestCh)))
		if b.abandoned.Load() {
			continue
		}
		b.done <- d.apply(b)
	}
}

func (d *Daemon) apply(b *batch) error {
	for i, e := range b.events {
		if d.opts.IngestDelay > 0 {
			d.clk.Sleep(d.opts.IngestDelay)
		}
		if err := d.sup.Ingest(e); err != nil {
			b.applied = i
			return err
		}
	}
	b.applied = len(b.events)
	return nil
}

// handleIngest serves POST /ingest: an NDJSON body of events, applied in
// order. Responses: 200 with accepted/quarantined counts; line-numbered 400
// on malformed lines (strict mode); 413 over MaxBody; 429 + Retry-After
// when the ingest queue or a shard queue is full; 503 + Retry-After while
// not ready, when a shard has degraded, or past the ingest deadline.
func (d *Daemon) handleIngest(w http.ResponseWriter, r *http.Request) {
	d.mRequests.Inc()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "ingest wants POST", nil)
		return
	}
	if s := d.state.Load(); s != stateReady {
		d.mUnavailable.Inc()
		d.retryAfter(w)
		writeError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("daemon is %s", stateNames[s]), nil)
		return
	}
	body := http.MaxBytesReader(w, r.Body, d.opts.MaxBody)
	events, bad, err := stream.ReadNDJSONLenient(body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			d.mRejected.Inc()
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("body exceeds %d bytes", d.opts.MaxBody), nil)
			return
		}
		d.mRejected.Inc()
		writeError(w, http.StatusBadRequest, err.Error(), nil)
		return
	}
	if len(bad) > 0 && !d.opts.Lenient {
		d.mRejected.Inc()
		writeError(w, http.StatusBadRequest, bad[0].Err.Error(), map[string]any{
			"line": bad[0].Line, "malformed": len(bad),
		})
		return
	}
	d.mBadRows.Add(int64(len(bad)))
	if len(events) == 0 {
		writeJSON(w, http.StatusOK, map[string]any{"accepted": 0, "quarantined": len(bad)})
		return
	}

	b := &batch{events: events, done: make(chan error, 1)}
	d.ingestMu.RLock()
	if d.ingestClosed {
		d.ingestMu.RUnlock()
		d.mUnavailable.Inc()
		d.retryAfter(w)
		writeError(w, http.StatusServiceUnavailable, "daemon is draining", nil)
		return
	}
	select {
	case d.ingestCh <- b:
		d.ingestMu.RUnlock()
	default:
		d.ingestMu.RUnlock()
		d.mThrottled.Inc()
		d.retryAfter(w)
		writeError(w, http.StatusTooManyRequests, "ingest queue full", nil)
		return
	}
	d.mIngestQueue.Set(int64(len(d.ingestCh)))

	timer := time.NewTimer(d.opts.IngestTimeout)
	defer timer.Stop()
	select {
	case err := <-b.done:
		if err != nil {
			d.writeApplyError(w, b, err)
			return
		}
		d.mEvents.Add(int64(len(events)))
		writeJSON(w, http.StatusOK, map[string]any{"accepted": len(events), "quarantined": len(bad)})
	case <-timer.C:
		b.abandoned.Store(true)
		d.mTimeouts.Inc()
		d.retryAfter(w)
		writeError(w, http.StatusServiceUnavailable,
			"ingest deadline exceeded; safe to retry (duplicates are deduplicated)", nil)
	case <-r.Context().Done():
		b.abandoned.Store(true)
	}
}

// writeApplyError maps a shard admission verdict to its HTTP status: a full
// shard queue is the client's backpressure signal (429), a degraded shard
// is an availability loss (503), anything else is a server fault.
func (d *Daemon) writeApplyError(w http.ResponseWriter, b *batch, err error) {
	extra := map[string]any{"applied": b.applied}
	switch {
	case errors.Is(err, shard.ErrQueueFull):
		d.mThrottled.Inc()
		d.retryAfter(w)
		writeError(w, http.StatusTooManyRequests, err.Error(), extra)
	case errors.Is(err, shard.ErrDegraded):
		d.mUnavailable.Inc()
		d.retryAfter(w)
		writeError(w, http.StatusServiceUnavailable, err.Error(), extra)
	default:
		writeError(w, http.StatusInternalServerError, err.Error(), extra)
	}
}

// handleFinish serves POST /finish: the stream is complete — close the
// supervisor, merge the shards and answer with the recognition CSV. The
// daemon stays up (state "finished") serving /result and the operational
// endpoints until it is terminated.
func (d *Daemon) handleFinish(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "finish wants POST", nil)
		return
	}
	csv, err := d.Finish()
	if err != nil {
		if d.state.Load() != stateFinished {
			writeError(w, http.StatusConflict, err.Error(), nil)
			return
		}
		writeError(w, http.StatusInternalServerError, err.Error(), nil)
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	w.Write(csv) //nolint:errcheck // best effort towards a closing client
}

// handleResult serves GET /result: the cached recognition CSV after a
// finish, 409 before one.
func (d *Daemon) handleResult(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "result wants GET", nil)
		return
	}
	if d.state.Load() != stateFinished {
		writeError(w, http.StatusConflict,
			fmt.Sprintf("no result yet: daemon is %s (POST /finish ends the stream)", d.State()), nil)
		return
	}
	d.finishMu.Lock()
	csv, err := d.finishCSV, d.finishErr
	d.finishMu.Unlock()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error(), nil)
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	w.Write(csv) //nolint:errcheck // best effort towards a closing client
}

// Finish ends the stream: ingest stops, the queue drains, the supervisor
// closes and the merged recognition is rendered to CSV (and OutPath, when
// set). Idempotent once finished; a finish racing a drain loses to it.
func (d *Daemon) Finish() ([]byte, error) {
	if !d.state.CompareAndSwap(stateReady, stateFinishing) {
		if d.state.Load() == stateFinished {
			d.finishMu.Lock()
			defer d.finishMu.Unlock()
			return d.finishCSV, d.finishErr
		}
		return nil, fmt.Errorf("serve: cannot finish: daemon is %s", d.State())
	}
	d.mState.Set(int64(stateFinishing))
	d.stopIngest()
	<-d.pumpDone
	res, err := d.sup.Close()
	d.hub.close()

	var csv []byte
	if err == nil && res != nil {
		var buf writerBuffer
		if werr := res.Recognition.WriteCSV(&buf); werr != nil {
			err = werr
		} else {
			csv = buf.b
			if d.opts.OutPath != "" {
				if werr := os.WriteFile(d.opts.OutPath, csv, 0o644); werr != nil {
					err = werr
				}
			}
		}
	}
	if jerr := d.closeJournals(); jerr != nil && err == nil {
		err = jerr
	}
	d.finishMu.Lock()
	d.finishCSV, d.finishErr = csv, err
	d.finishMu.Unlock()
	d.state.Store(stateFinished)
	d.mState.Set(int64(stateFinished))
	return csv, err
}

// writerBuffer is a minimal bytes buffer (avoids importing bytes for one
// use).
type writerBuffer struct{ b []byte }

func (w *writerBuffer) Write(p []byte) (int, error) { w.b = append(w.b, p...); return len(p), nil }

// Drain parks the daemon gracefully: stop accepting ingest, finish the
// queued batches, suspend every shard (backlog processed, suspend
// checkpoint written, staged journal committed through it), disconnect the
// subscribers and drain the HTTP server under DrainTimeout. The returned
// statuses report where each shard parked. Safe to call from any goroutine
// and idempotent; a drain after a finish just shuts the HTTP server down.
func (d *Daemon) Drain() ([]shard.ShardStatus, error) {
	d.drainOnce.Do(func() {
		defer close(d.drainDone)
		d.drainSts, d.drainErr = d.doDrain()
	})
	<-d.drainDone
	return d.drainSts, d.drainErr
}

func (d *Daemon) doDrain() ([]shard.ShardStatus, error) {
	for {
		s := d.state.Load()
		if s == stateFinishing || s == stateFinished {
			// The run already ended through /finish (or is about to):
			// nothing to park, just let the finish complete and stop
			// serving.
			_, err := d.Finish()
			if serr := d.srv.Shutdown(d.opts.DrainTimeout); serr != nil && err == nil {
				err = serr
			}
			return nil, err
		}
		if d.state.CompareAndSwap(s, stateDraining) {
			break
		}
	}
	d.mState.Set(int64(stateDraining))
	d.stopIngest()
	<-d.pumpDone
	sts, err := d.sup.Suspend()
	if jerr := d.closeJournals(); jerr != nil && err == nil {
		err = jerr
	}
	d.hub.close()
	if serr := d.srv.Shutdown(d.opts.DrainTimeout); serr != nil && err == nil {
		err = serr
	}
	d.state.Store(stateSuspended)
	d.mState.Set(int64(stateSuspended))
	return sts, err
}

// stopIngest closes the admission path: late requests see ingestClosed
// under the read lock instead of racing a send on a closed channel.
func (d *Daemon) stopIngest() {
	d.ingestMu.Lock()
	if !d.ingestClosed {
		d.ingestClosed = true
		close(d.ingestCh)
	}
	d.ingestMu.Unlock()
}

func (d *Daemon) retryAfter(w http.ResponseWriter) {
	secs := int(d.opts.RetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

func writeError(w http.ResponseWriter, code int, msg string, extra map[string]any) {
	body := map[string]any{"error": msg}
	for k, v := range extra {
		body[k] = v
	}
	writeJSON(w, code, body)
}

func writeJSON(w http.ResponseWriter, code int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(body) //nolint:errcheck // best effort towards a closing client
}

func (d *Daemon) describeMetrics() {
	d.mState = d.tel.Gauge("serve.state")
	d.mIngestQueue = d.tel.Gauge("serve.ingest.queue")
	d.mSubsActive = d.tel.Gauge("serve.subs.active")
	d.mRequests = d.tel.Counter("serve.ingest.requests")
	d.mEvents = d.tel.Counter("serve.ingest.events")
	d.mThrottled = d.tel.Counter("serve.ingest.throttled")
	d.mUnavailable = d.tel.Counter("serve.ingest.unavailable")
	d.mTimeouts = d.tel.Counter("serve.ingest.timeouts")
	d.mRejected = d.tel.Counter("serve.ingest.rejected")
	d.mBadRows = d.tel.Counter("stream.badrows")
	d.mSubsDelivered = d.tel.Counter("serve.subs.delivered")
	d.mSubsDropped = d.tel.Counter("serve.subs.dropped")
	d.mSubsEvicted = d.tel.Counter("serve.subs.evicted")
	d.mPublished = d.tel.Counter("serve.windows.published")
	if d.tel == nil || d.tel.Registry == nil {
		return
	}
	reg := d.tel.Registry
	reg.Describe("serve.state", "Daemon lifecycle state: 0 starting, 1 ready, 2 draining, 3 suspended, 4 finishing, 5 finished.")
	reg.Describe("serve.ingest.queue", "Batches waiting in the bounded ingest queue.")
	reg.Describe("serve.ingest.requests", "Ingest HTTP requests received.")
	reg.Describe("serve.ingest.events", "Events accepted and applied to the shards.")
	reg.Describe("serve.ingest.throttled", "Requests answered 429: ingest or shard queue full.")
	reg.Describe("serve.ingest.unavailable", "Requests answered 503: not ready, draining or degraded.")
	reg.Describe("serve.ingest.timeouts", "Requests that hit the ingest deadline mid-apply.")
	reg.Describe("serve.ingest.rejected", "Requests answered 400/413: malformed lines or oversized body.")
	reg.Describe("stream.badrows", "Malformed stream rows quarantined in lenient mode.")
	reg.Describe("serve.subs.active", "Connected /subscribe clients.")
	reg.Describe("serve.subs.delivered", "Window payloads delivered to subscribers.")
	reg.Describe("serve.subs.dropped", "Window payloads dropped on full subscriber buffers.")
	reg.Describe("serve.subs.evicted", "Subscribers disconnected for falling hopelessly behind.")
	reg.Describe("serve.windows.published", "Window deliveries fanned out to the subscription hub.")
}
