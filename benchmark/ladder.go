package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rtecgen/internal/lang"
	"rtecgen/internal/parser"
	"rtecgen/internal/rtec"
	"rtecgen/internal/serve"
	"rtecgen/internal/shard"
	"rtecgen/internal/stream"
	"rtecgen/internal/telemetry"
	"rtecgen/internal/telemetry/journal"
)

// The traced run: the workload's exact arrival sequence replayed
// in-process, one rung at a time, each rung adding one layer through its
// public API. A layer's self cost is its rung's wall minus the rung(s)
// below it (see selfCost). Spans are recorded from here, around the calls
// into each layer, never inside the layers. Rungs run closed loop, one pass
// each; every rung that produces a recognition checks it against the same
// reference as the untraced run.

// ladder is the state the rungs share.
type ladder struct {
	e    *env
	in   *daemonInput
	rep  *report
	tr   *telemetry.Tracer
	ed   *lang.EventDescription   // parsed by the rtec.load rung
	eng  *rtec.Engine             // compiled by the rtec.load rung, rtecd's options
	wall map[string]time.Duration // rung name → wall
	// unshardedSecs is the recognised duration of the rtec.stream rung, the
	// denominator of shard.recall_vs_unsharded.
	unshardedSecs float64
}

// cost is what one rung consumed in this process.
type cost struct {
	wall    time.Duration
	mallocs uint64
}

// measure runs fn as the rung called name under a root span.
func (l *ladder) measure(name string, fn func(sp *telemetry.Span) error) (cost, error) {
	sp := l.tr.Span(name, telemetry.String("workload", l.in.w.name))
	defer sp.End()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := l.e.clk.Now()
	err := fn(sp)
	c := cost{wall: l.e.clk.Now().Sub(t0)}
	runtime.ReadMemStats(&m1)
	c.mallocs = m1.Mallocs - m0.Mallocs
	l.wall[name] = c.wall
	return c, err
}

// check compares a rung's recognition with the reference.
func (l *ladder) check(rung string, rec *rtec.Recognition) error {
	var buf bytes.Buffer
	if err := rec.WriteCSV(&buf); err != nil {
		return err
	}
	l.checkCSV(rung, buf.Bytes())
	return nil
}

func (l *ladder) checkCSV(rung string, csv []byte) {
	l.rep.attempted++
	if !bytes.Equal(csv, l.in.reference) {
		l.rep.failed++
		l.rep.correct = false
		l.rep.note("%s: recognition differs from the unsharded batch reference", rung)
	}
}

// below is the wall of the nearest rung under the caller that ran on this
// workload: a workload that skips a rung folds that layer's cost into the
// self cost of the next rung up.
func (l *ladder) below(rungs ...string) time.Duration {
	for _, r := range rungs {
		if d, ok := l.wall[r]; ok {
			return d
		}
	}
	return 0
}

func (l *ladder) streamOptions() rtec.StreamOptions {
	return rtec.StreamOptions{
		RunOptions: rtec.RunOptions{Window: windowSize, Slide: l.in.w.slide, Start: l.in.start, End: l.in.end},
		MaxDelay:   maxDelay,
	}
}

// durableOptions is streamOptions snapshotting into dir after every window,
// as rtecd does.
func (l *ladder) durableOptions(dir string) rtec.StreamOptions {
	opts := l.streamOptions()
	opts.CheckpointPath, opts.CheckpointEvery = filepath.Join(dir, "ck"), 1
	return opts
}

// traceDaemon is the traced run of a daemon workload.
func traceDaemon(ctx context.Context, e *env, w workload, seed int64, rep *report) error {
	dir, cleanup, err := e.tempDir("setup")
	if err != nil {
		return err
	}
	defer cleanup()
	in, err := setupDaemon(ctx, e, w, seed, dir)
	if err != nil {
		return err
	}
	l := &ladder{e: e, in: in, rep: rep, tr: telemetry.NewTracerWithClock(e.clk.Now), wall: map[string]time.Duration{}}
	n := in.plan.arrivals
	rep.note("arrivals=%d batches=%d windows=%d", n, len(in.plan.batches), len(in.plan.expectQ)+1)

	// The outermost rung is the real process, untraced: what the ladder's
	// walls are compared with, and the home of the daemon's user-visible
	// latencies.
	ext, err := daemonPass(ctx, e, in)
	if err != nil {
		return err
	}
	rep.attempted += ext.attempt
	rep.failed += ext.failed
	rep.correct = rep.correct && ext.csvOK
	rep.set("rtecd.ready_ms", ms(ext.ready))
	rep.set("rtecd.wall_s", ext.wall.Seconds())
	rep.set("rtecd.cpu_s", ext.cpu.Seconds())
	rep.set("rtecd.allocs_per_event", float64(ext.mallocs)/float64(n))
	rep.set("rtecd.ack_p50_ms", quantile(ext.ackMS, 0.5))
	rep.set("rtecd.ack_p90_ms", tail(ext.ackMS, 0.90))
	if w.slide > 0 { // tumbling workloads emit ten windows a pass: no sample to speak of
		rep.set("rtecd.emit_p50_ms", quantile(ext.emitMS, 0.5))
		rep.set("rtecd.emit_p90_ms", tail(ext.emitMS, 0.90))
	}
	if w.rate > 0 {
		rep.set("loadgen.sched_lag_p90_ms", tail(ext.lagMS, 0.90))
	}

	rungs := []struct {
		name string
		run  func() error
	}{
		{"stream.decode", l.decode},
		{"stream.reorder", l.reorder},
		{"rtec.load", l.load},
		{"rtec.eval", l.eval},
		{"rtec.stream", l.stream},
		{"rtec.checkpoint", l.checkpoint},
		{"journal", l.journal},
		{"shard", l.shard},
		{"shard.s2", l.shard2},
		{"serve", func() error { return l.serve(ctx) }},
	}
	for _, r := range rungs {
		if !w.has(r.name) {
			continue
		}
		if err := r.run(); err != nil {
			return fmt.Errorf("rung %s: %w", r.name, err)
		}
	}
	rep.set("trace.overhead_ratio", ratio(l.wall["serve"].Seconds(), ext.wall.Seconds()))
	return writeTrace(e, l.tr, w.name, rep)
}

// writeTrace exports the spans as Chrome trace JSON (chrome://tracing,
// ui.perfetto.dev; cmd/tracecheck validates it).
func writeTrace(e *env, tr *telemetry.Tracer, workload string, rep *report) error {
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(e.out, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	rep.note("trace: %s (%d spans)", path, len(tr.Events()))
	return f.Close()
}

// decode: stream.ReadNDJSONLenient over the same request bodies rtecd gets.
func (l *ladder) decode() error {
	var bytesIn, events int
	c, err := l.measure("stream.decode", func(sp *telemetry.Span) error {
		for i, body := range l.in.plan.batches {
			bs := sp.Span("stream.decode.batch", telemetry.Int("batch", int64(i)))
			evs, bad, err := stream.ReadNDJSONLenient(bytes.NewReader(body))
			bs.End()
			if err != nil || len(bad) > 0 {
				return fmt.Errorf("batch %d: %d bad lines, err %v", i, len(bad), err)
			}
			bytesIn += len(body)
			events += len(evs)
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.rep.set("stream.decode.ns_per_event", perEvent(c.wall, events))
	l.rep.set("stream.decode.allocs_per_event", ratio(float64(c.mallocs), float64(events)))
	l.rep.set("stream.decode.bytes_in", float64(bytesIn))
	return nil
}

// reorder: the bounded-delay buffer alone, consumed the in-order way
// (release the settled prefix after every batch).
func (l *ladder) reorder() error {
	r := stream.NewReorder(maxDelay)
	c, err := l.measure("stream.reorder", func(sp *telemetry.Span) error {
		for i, batch := range l.in.arrivals {
			bs := sp.Span("stream.reorder.batch", telemetry.Int("batch", int64(i)))
			for _, ev := range batch {
				r.Push(ev)
			}
			if w, ok := r.Watermark(); ok {
				r.Release(w)
			}
			bs.End()
		}
		r.Close()
		return nil
	})
	if err != nil {
		return err
	}
	st := r.Stats()
	l.rep.set("stream.reorder.ns_per_event", perEvent(c.wall, int(st.Observed)))
	l.rep.set("stream.reorder.late", float64(st.Late))
	l.rep.set("stream.reorder.duplicates", float64(st.Duplicates))
	l.rep.set("stream.reorder.high_water", float64(r.HighWater()))
	return nil
}

// load: what rtecd does between exec and listening — parse the event
// description and compile the engine. Work moved out of evaluation into
// load shows here (and in rtecd.ready_ms), not in wall_s.
func (l *ladder) load() error {
	c, err := l.measure("rtec.load", func(*telemetry.Span) error {
		var err error
		if l.ed, err = parser.ParseEventDescription(l.in.edText); err != nil {
			return err
		}
		l.eng, err = rtec.New(l.ed, rtec.Options{})
		return err
	})
	l.rep.set("rtec.load.ms", ms(c.wall))
	return err
}

// eval: Engine.RunWindows over the sorted stream — evaluation with no
// streaming machinery around it — paired-interleaved in this one process
// with the two differential engines: DisableDelta (what the delta layer
// buys) and Workers:1 (the single-threaded baseline).
func (l *ladder) eval() error {
	noDelta, err := rtec.New(l.ed, rtec.Options{DisableDelta: true})
	if err != nil {
		return err
	}
	oneWorker, err := rtec.New(l.ed, rtec.Options{Workers: 1})
	if err != nil {
		return err
	}
	engines := []*rtec.Engine{l.eng, noDelta, oneWorker}
	opts := l.streamOptions().RunOptions
	windows := len(l.in.plan.expectQ) + 1
	// Enough rounds for the pooled per-window sample to support a p90.
	rounds := min(10, max(3, (100+windows-1)/windows))

	var walls [3][]float64
	var mallocs, allocBytes, windowMS []float64
	_, err = l.measure("rtec.eval", func(sp *telemetry.Span) error {
		for round := 0; round < rounds; round++ {
			for k := 0; k < len(engines); k++ {
				v := (k + round) % len(engines) // rotate who goes first
				var m0, m1 runtime.MemStats
				var ws *telemetry.Span
				i := 0
				if v == 0 {
					runtime.ReadMemStats(&m0)
					if round == 0 {
						ws = sp.Span("rtec.eval.window", telemetry.Int("window", 0))
					}
				}
				t0 := l.e.clk.Now()
				last := t0
				err := engines[v].RunWindows(l.in.sorted, opts, func(rtec.WindowResult) error {
					if v == 0 {
						now := l.e.clk.Now()
						windowMS = append(windowMS, ms(now.Sub(last)))
						last = now
						ws.End()
						if i++; round == 0 && i < windows {
							ws = sp.Span("rtec.eval.window", telemetry.Int("window", int64(i)))
						}
					}
					return nil
				})
				if err != nil {
					return err
				}
				walls[v] = append(walls[v], l.e.clk.Now().Sub(t0).Seconds())
				if v == 0 {
					runtime.ReadMemStats(&m1)
					mallocs = append(mallocs, float64(m1.Mallocs-m0.Mallocs))
					allocBytes = append(allocBytes, float64(m1.TotalAlloc-m0.TotalAlloc))
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	var deltaRatio, workersRatio []float64
	for r := range walls[0] {
		deltaRatio = append(deltaRatio, ratio(walls[1][r], walls[0][r]))
		workersRatio = append(workersRatio, ratio(walls[2][r], walls[0][r]))
	}
	n := float64(len(l.in.sorted))
	wall := time.Duration(median(walls[0]) * float64(time.Second))
	l.wall["rtec.eval"] = wall // one default run, not the whole paired rung
	l.rep.set("rtec.eval.ns_per_event", perEvent(wall, len(l.in.sorted)))
	l.rep.set("rtec.eval.allocs_per_event", median(mallocs)/n)
	l.rep.set("rtec.eval.bytes_per_event", median(allocBytes)/n)
	l.rep.set("rtec.eval.windows", float64(windows))
	l.rep.set("rtec.eval.window_p50_ms", quantile(windowMS, 0.5))
	l.rep.set("rtec.eval.window_p90_ms", tail(windowMS, 0.90))
	l.rep.set("rtec.eval.delta_ratio", median(deltaRatio))
	l.rep.set("rtec.eval.workers_ratio", median(workersRatio))
	return nil
}

// ingestCall is one StreamRunner.Ingest call, timed and classed from
// outside the engine.
type ingestCall struct {
	d     time.Duration
	late  bool // the arrival was behind the event-time frontier
	first bool // the callback saw a first emission during the call
}

// streamRun drives NewStreamRunner → Ingest×N → Finish over the arrival
// sequence and checks the result. It is the body of the rtec.stream,
// rtec.checkpoint and journal rungs, which differ only in opts.
func (l *ladder) streamRun(sp *telemetry.Span, rung string, opts rtec.StreamOptions) (*rtec.StreamResult, []ingestCall, error) {
	calls := make([]ingestCall, 0, l.in.plan.arrivals)
	var cur *ingestCall
	runner, err := l.eng.NewStreamRunner(opts, func(wr rtec.WindowResult) error {
		if cur != nil && wr.Revision == 0 {
			cur.first = true
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	var frontier int64
	started := false
	for i, batch := range l.in.arrivals {
		bs := sp.Span(rung+".ingest", telemetry.Int("batch", int64(i)), telemetry.Int("events", int64(len(batch))))
		for _, ev := range batch {
			calls = append(calls, ingestCall{late: started && ev.Time < frontier})
			cur = &calls[len(calls)-1]
			t0 := l.e.clk.Now()
			err := runner.Ingest(ev)
			cur.d = l.e.clk.Now().Sub(t0)
			if err != nil {
				bs.End()
				runner.Abort()
				return nil, nil, err
			}
			if !started || ev.Time > frontier {
				frontier, started = ev.Time, true
			}
		}
		bs.End()
	}
	cur = nil
	fs := sp.Span(rung + ".finish")
	res, err := runner.Finish()
	fs.End()
	if err != nil {
		return nil, nil, err
	}
	return res, calls, l.check(rung, res.Recognition)
}

// stream: the push-based runner — reorder buffer, window emission and
// late-arrival revision around the evaluator. Its self cost is what the
// streaming machinery adds to evaluating each window once.
func (l *ladder) stream() error {
	var res *rtec.StreamResult
	var calls []ingestCall
	c, err := l.measure("rtec.stream", func(sp *telemetry.Span) (err error) {
		res, calls, err = l.streamRun(sp, "rtec.stream", l.streamOptions())
		return err
	})
	if err != nil {
		return err
	}
	l.unshardedSecs = recognisedSecs(res.Recognition)

	var admitUS, firstMS, lateMS []float64
	var total, lateTotal time.Duration
	for _, call := range calls {
		total += call.d
		switch {
		case call.late:
			lateTotal += call.d
			lateMS = append(lateMS, ms(call.d))
		case call.first:
			firstMS = append(firstMS, ms(call.d))
		default:
			admitUS = append(admitUS, float64(call.d)/float64(time.Microsecond))
		}
	}
	n := len(calls)
	self := selfCost(c.wall, l.wall["rtec.eval"], l.wall["stream.reorder"])
	l.rep.set("rtec.stream.self_ns_per_event", perEvent(self, n))
	l.rep.set("rtec.stream.allocs_per_event", ratio(float64(c.mallocs), float64(n)))
	l.rep.set("rtec.stream.admit_p50_us", quantile(admitUS, 0.5))
	l.rep.set("rtec.stream.first_p50_ms", quantile(firstMS, 0.5))
	l.rep.set("rtec.stream.late_p50_ms", quantile(lateMS, 0.5))
	l.rep.set("rtec.stream.late_share", ratio(lateTotal.Seconds(), c.wall.Seconds()))
	l.rep.set("rtec.stream.revisions", float64(res.Stats.Revisions))
	l.rep.set("rtec.stream.revision_yield", ratio(float64(res.Stats.Revisions), float64(res.Stats.Late)))
	return nil
}

// checkpoint: the same run snapshotting after every window, as rtecd does.
func (l *ladder) checkpoint() error {
	dir, cleanup, err := l.e.tempDir("rung")
	if err != nil {
		return err
	}
	defer cleanup()
	opts := l.durableOptions(dir)
	var res *rtec.StreamResult
	c, err := l.measure("rtec.checkpoint", func(sp *telemetry.Span) (err error) {
		res, _, err = l.streamRun(sp, "rtec.checkpoint", opts)
		return err
	})
	if err != nil {
		return err
	}
	self := selfCost(c.wall, l.wall["rtec.stream"])
	l.rep.set("rtec.checkpoint.self_ns_per_event", perEvent(self, l.in.plan.arrivals))
	l.rep.set("rtec.checkpoint.writes", float64(res.Stats.Checkpoints))
	l.rep.set("rtec.checkpoint.bytes", float64(dirBytes(dir)))
	l.rep.set("rtec.checkpoint.ms_per_write", ratio(ms(self), float64(res.Stats.Checkpoints)))
	return nil
}

// journal: the same run also writing the audit journal to a file.
func (l *ladder) journal() error {
	dir, cleanup, err := l.e.tempDir("rung")
	if err != nil {
		return err
	}
	defer cleanup()
	path := filepath.Join(dir, "journal.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	opts := l.durableOptions(dir)
	opts.Journal = journal.NewWriter(f, journal.Options{})
	c, err := l.measure("journal", func(sp *telemetry.Span) error {
		_, _, err := l.streamRun(sp, "journal", opts)
		return err
	})
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	self := selfCost(c.wall, l.wall["rtec.checkpoint"])
	l.rep.set("journal.self_ns_per_event", perEvent(self, l.in.plan.arrivals))
	l.rep.set("journal.bytes", float64(len(raw)))
	l.rep.set("journal.records", float64(bytes.Count(raw, []byte("\n"))))
	return nil
}

// shardRun drives shard.NewSupervisor with rtecd's options at the given
// shard count and returns the merged result and each Ingest call's duration.
func (l *ladder) shardRun(sp *telemetry.Span, shards int) (*shard.Result, []time.Duration, error) {
	dir, cleanup, err := l.e.tempDir("rung")
	if err != nil {
		return nil, nil, err
	}
	defer cleanup()
	files := make([]*os.File, shards)
	for k := range files {
		if files[k], err = os.Create(filepath.Join(dir, fmt.Sprintf("journal.s%d", k))); err != nil {
			return nil, nil, err
		}
		defer files[k].Close()
	}
	opts := l.durableOptions(dir)
	sup, err := shard.NewSupervisor(l.eng, shard.Options{
		Shards:     shards,
		Stream:     opts,
		JournalFor: func(k int) io.Writer { return files[k] },
		OnWindow:   func(int, rtec.WindowResult) {},
		Seed:       7,
	})
	if err != nil {
		return nil, nil, err
	}
	waits := make([]time.Duration, 0, l.in.plan.arrivals)
	name := fmt.Sprintf("shard.s%d", shards)
	for i, batch := range l.in.arrivals {
		bs := sp.Span(name+".ingest", telemetry.Int("batch", int64(i)))
		for _, ev := range batch {
			t0 := l.e.clk.Now()
			err := sup.Ingest(ev)
			waits = append(waits, l.e.clk.Now().Sub(t0))
			if err != nil {
				bs.End()
				sup.Close() //nolint:errcheck // the ingest failure is the error to report
				return nil, nil, err
			}
		}
		bs.End()
	}
	cs := sp.Span(name + ".close")
	res, err := sup.Close()
	cs.End()
	return res, waits, err
}

// shard: the supervised runtime at one shard, rtecd's configuration. Each
// Ingest call's duration is time the producer waited for the layer.
func (l *ladder) shard() error {
	var res *shard.Result
	var waits []time.Duration
	c, err := l.measure("shard", func(sp *telemetry.Span) (err error) {
		res, waits, err = l.shardRun(sp, 1)
		return err
	})
	if err != nil {
		return err
	}
	if err := l.check("shard", res.Recognition); err != nil {
		return err
	}
	var waited time.Duration
	waitUS := make([]float64, len(waits))
	for i, d := range waits {
		waited += d
		waitUS[i] = float64(d) / float64(time.Microsecond)
	}
	var overflow, restarts float64
	for _, st := range res.Shards {
		overflow += float64(st.Overflow)
		restarts += float64(st.Restarts)
	}
	self := selfCost(c.wall, l.below("journal", "rtec.checkpoint", "rtec.stream"))
	l.rep.set("shard.self_ns_per_event", perEvent(self, len(waits)))
	l.rep.set("shard.ingest_wait_s", waited.Seconds())
	l.rep.set("shard.ingest_p99_us", tail(waitUS, 0.99))
	l.rep.set("shard.queue_overflow", overflow)
	l.rep.set("shard.restarts", restarts)
	return nil
}

// shard2: the same at two shards. Its output is not expected to match the
// reference — entity-hash sharding loses relational fluents — and
// recall_vs_unsharded says by how much.
func (l *ladder) shard2() error {
	var res *shard.Result
	c, err := l.measure("shard.s2", func(sp *telemetry.Span) (err error) {
		res, _, err = l.shardRun(sp, 2)
		return err
	})
	if err != nil {
		return err
	}
	var maxConsumed, sumConsumed float64
	for _, st := range res.Shards {
		maxConsumed = max(maxConsumed, float64(st.Consumed))
		sumConsumed += float64(st.Consumed)
	}
	l.rep.set("shard.skew", ratio(maxConsumed, sumConsumed/float64(len(res.Shards))))
	l.rep.set("shard.s2_ratio", ratio(c.wall.Seconds(), l.wall["shard"].Seconds()))
	l.rep.set("shard.recall_vs_unsharded", ratio(recognisedSecs(res.Recognition), l.unshardedSecs))
	return nil
}

// serve: the daemon's HTTP surface in-process behind httptest, driven by
// the same client as the untraced run, closed loop.
func (l *ladder) serve(ctx context.Context) error {
	dir, cleanup, err := l.e.tempDir("rung")
	if err != nil {
		return err
	}
	defer cleanup()
	opts := l.durableOptions(dir)
	d, err := serve.New(l.eng, serve.Options{
		Shards: 1, Stream: opts, Seed: 7,
		JournalPath: filepath.Join(dir, "journal.jsonl"),
	})
	if err != nil {
		return err
	}
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	d.Ready()
	p := l.in.plan
	p.rate = 0
	var st *passStats
	_, err = l.measure("serve", func(*telemetry.Span) (err error) {
		st, err = drive(ctx, l.e.clk, ts.URL, &p)
		return err
	})
	if _, derr := d.Drain(); err == nil {
		err = derr
	}
	if err != nil {
		return err
	}
	l.wall["serve"] = st.wall // first input → CSV, the same interval as wall_s
	l.checkCSV("serve", st.csv)
	l.rep.attempted += st.posts + len(p.expectQ)
	l.rep.failed += st.non200 + st.framesMissing

	self := selfCost(st.wall, l.below("shard", "journal", "rtec.checkpoint", "rtec.stream"), l.wall["stream.decode"])
	l.rep.set("serve.self_ns_per_event", perEvent(self, p.arrivals))
	l.rep.set("serve.sse_bytes", float64(st.sseBytes))
	l.rep.set("serve.frames", float64(st.frames))
	l.rep.set("serve.frames_missing", float64(st.framesMissing))
	l.rep.set("serve.status_429", float64(st.status429))
	l.rep.set("serve.status_503", float64(st.status503))
	return nil
}

// recognisedSecs is the total recognised duration: the sum of every
// interval of every fluent-value pair, clipped to the run's time-line.
func recognisedSecs(rec *rtec.Recognition) float64 {
	var total int64
	for _, key := range rec.Keys() {
		for _, iv := range rec.IntervalsOfKey(key) {
			total += min(iv.End, rec.End) - max(iv.Start, rec.Start)
		}
	}
	return float64(total)
}

// dirBytes sums the sizes of the files in dir — the checkpoint state on
// disk, sidecars and previous generation included.
func dirBytes(dir string) int64 {
	var total int64
	entries, _ := os.ReadDir(dir)
	for _, ent := range entries {
		if info, err := ent.Info(); err == nil {
			total += info.Size()
		}
	}
	return total
}
