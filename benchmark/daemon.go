package main

import (
	"bytes"
	"context"
	"path/filepath"
	"strconv"
	"time"
)

// passTimeout bounds one pass (a fresh child process and its traffic).
const passTimeout = 90 * time.Second

// daemonPassResult is one untraced pass against a real rtecd process.
type daemonPassResult struct {
	*passStats
	usage
	ready   time.Duration
	csvOK   bool
	failed  int // non-200 POSTs + missing first emissions + a mismatching CSV
	attempt int // POSTs + expected first emissions + the CSV comparison
}

// daemonPass runs the workload once from outside: a fresh rtecd on port 0
// in a fresh directory, one POST connection, one SSE subscriber, /finish,
// then SIGTERM. The flags are the load shape every daemon workload shares:
// one shard, so the unsharded batch CSV is a valid oracle.
func daemonPass(ctx context.Context, e *env, in *daemonInput) (*daemonPassResult, error) {
	ctx, cancel := context.WithTimeout(ctx, passTimeout)
	defer cancel()
	dir, cleanup, err := e.tempDir("pass")
	if err != nil {
		return nil, err
	}
	defer cleanup()

	args := []string{
		"-ed", in.edPath, "-listen", "127.0.0.1:0",
		"-window", strconv.Itoa(windowSize), "-max-delay", strconv.Itoa(maxDelay),
		"-start", strconv.FormatInt(in.start, 10), "-end", strconv.FormatInt(in.end, 10),
		"-shards", "1", "-workers", "0", "-checkpoint-every", "1",
		"-checkpoint", filepath.Join(dir, "ck"), "-journal", filepath.Join(dir, "journal.jsonl"),
	}
	if in.w.slide > 0 {
		args = append(args, "-slide", strconv.FormatInt(in.w.slide, 10))
	}
	d, err := startDaemon(ctx, e.clk, e.bin("rtecd"), args...)
	if err != nil {
		return nil, err
	}
	defer d.stop() //nolint:errcheck // backstop for the error paths; the success path checks it below

	st, err := drive(ctx, e.clk, "http://"+d.addr, &in.plan)
	if err != nil {
		return nil, err
	}
	u, err := d.stop()
	if err != nil {
		return nil, err
	}
	r := &daemonPassResult{passStats: st, usage: u, ready: d.ready, csvOK: bytes.Equal(st.csv, in.reference)}
	r.attempt = st.posts + len(in.plan.expectQ) + 1
	r.failed = st.non200 + st.framesMissing
	if !r.csvOK {
		r.failed++
	}
	return r, nil
}

// passes repeats one until the measurement budget is spent: at least
// minPasses, then for as long as another pass of average length still fits.
// Times are reported as medians over passes, so a faster system under test
// buys more samples, not a shorter run.
func passes(e *env, budget time.Duration, one func() error) error {
	const minPasses = 3
	t0 := e.clk.Now()
	for n := 1; ; n++ {
		if err := one(); err != nil {
			return err
		}
		spent := e.clk.Now().Sub(t0)
		if n >= minPasses && spent+spent/time.Duration(n) > budget {
			return nil
		}
	}
}

// runDaemon is the untraced measurement of a daemon workload.
func runDaemon(ctx context.Context, e *env, w workload, seed int64, budget time.Duration, rep *report) error {
	in, setup, cleanup, err := timedSetup(ctx, e, w, seed, 5)
	if err != nil {
		return err
	}
	defer cleanup()

	var wall, cpu, rss, ready, allocs []float64
	var ack, emit, lag []float64
	err = passes(e, budget, func() error {
		r, err := daemonPass(ctx, e, in)
		if err != nil {
			return err
		}
		wall = append(wall, r.wall.Seconds())
		cpu = append(cpu, r.cpu.Seconds())
		rss = append(rss, r.rssMB)
		ready = append(ready, ms(r.ready))
		allocs = append(allocs, float64(r.mallocs)/float64(in.plan.arrivals))
		ack = append(ack, r.ackMS...)
		emit = append(emit, r.emitMS...)
		lag = append(lag, r.lagMS...)
		rep.attempted += r.attempt
		rep.failed += r.failed
		rep.correct = rep.correct && r.csvOK
		return nil
	})
	if err != nil {
		return err
	}

	rep.note("arrivals=%d batches=%d windows=%d passes=%d wall_s per pass %.3f",
		in.plan.arrivals, len(in.plan.batches), len(in.plan.expectQ)+1, len(wall), wall)
	rep.note("peak_rss_mb per pass %.1f", rss)
	rep.set("setup_s", setup)
	rep.set("wall_s", median(wall))
	rep.set("peak_rss_mb", median(rss))
	rep.info("cpu_s", median(cpu), "s", "unbounded: too noisy on this host to gate")
	// Daemon-only numbers: printed for the reader, carried in the JSON by
	// the traced run's rtecd rung (every workload must report one metric set,
	// and figures has no acknowledgements or emissions).
	rep.info("allocs_per_event", median(allocs), "count", "")
	rep.info("rtecd.ready_ms", median(ready), "ms", "")
	rep.latency("ack", ack)
	if w.slide > 0 {
		rep.latency("emit", emit)
	}
	if w.rate > 0 {
		rep.info("loadgen.sched_lag_p90_ms", tail(lag, 0.90), "ms", sampleNote(lag))
	}
	rep.info("fail_pct", 100*ratio(float64(rep.failed), float64(rep.attempted)), "%", "")
	return nil
}

// timedSetup generates a daemon workload's inputs reps times, each in a
// fresh directory, and returns the last set with the median set-up time.
func timedSetup(ctx context.Context, e *env, w workload, seed int64, reps int) (*daemonInput, float64, func(), error) {
	var times []float64
	var in *daemonInput
	cleanup := func() {}
	for i := 0; i < reps; i++ {
		cleanup()
		dir, rm, err := e.tempDir("setup")
		if err != nil {
			return nil, 0, nil, err
		}
		cleanup = rm
		t0 := e.clk.Now()
		if in, err = setupDaemon(ctx, e, w, seed, dir); err != nil {
			rm()
			return nil, 0, nil, err
		}
		times = append(times, e.clk.Now().Sub(t0).Seconds())
	}
	return in, median(times), cleanup, nil
}
