// Command rtecd is the long-lived recognition daemon: it serves the RTEC
// engine over HTTP, ingesting NDJSON event streams into the supervised
// shard runtime and publishing window deliveries to subscribers.
//
// Usage:
//
//	rtecd -ed rules.rtec -listen :8080 -window W -start T0 -end T1 -checkpoint base
//	      [-slide S] [-max-delay D] [-workers N] [-lenient]
//	      [-shards N] [-checkpoint-every N] [-journal file] [-journal-cap N]
//	      [-resume] [-v]
//
// The HTTP surface (one port for everything):
//
//	POST /ingest     NDJSON events ({"time":10,"atom":"f(a)"} per line), applied
//	                 in order. 400 names the first malformed line; -lenient
//	                 quarantines instead. 429/503 with Retry-After signal
//	                 overload — re-POSTing is safe, duplicates are deduplicated.
//	                 A 429 (full ingest queue) applied nothing; a 503 naming
//	                 a degraded shard means the run cannot finish.
//	GET  /subscribe  SSE stream of window deliveries; ?fluent=name/arity and
//	                 ?entity=e filter.
//	POST /finish     ends the stream: shards close, the merged recognition
//	                 CSV is the response — a 500 naming the shard instead
//	                 when one degraded.
//	GET  /result     the cached answer of /finish.
//	GET  /healthz    lifecycle + shard readiness (503 unless ready/finished).
//	GET  /metrics    Prometheus text exposition; /debug/pprof/, /debug/vars.
//
// rtecd is the only front end to the shard runtime: a one-shot sharded run
// is an rtecd run whose client POSTs the whole stream and then /finish.
// It is also the only streaming front end: out-of-order ingestion,
// checkpoints, resume and the audit journal. cmd/rtec is the unsharded batch
// reference.
//
// The restart budget per shard (5), the per-shard backlog bound (256
// arrivals; a full shard queue blocks the ingest pump), the ingest queue (16
// batches), the request deadline (30 s), the Retry-After hint (1 s), the
// body cap (8 MiB), the per-subscriber buffer (64 frames, eviction after 256
// drops) and the shutdown connection drain (5 s) are constants: the zero-value defaults of serve.Options and
// shard.Options. So is the backoff jitter seed, backoffSeed. The event
// description loads strictly. A plan the engine refuses (a -slide above
// -window, a negative one, -start at or past -end) fails the start, before
// the port is bound or a journal is created, and so does a rule the engine
// cannot run (a cyclic definition, a malformed condition).
//
// SIGTERM or SIGINT drains gracefully: ingest stops, admitted events are
// processed to completion, every shard parks into a suspend checkpoint
// ("<-checkpoint>.s<k>") with its journal committed through it, and the
// process exits 0. Restarting with -resume and re-POSTing the same stream
// continues the run with output byte-identical to an uninterrupted one. A
// second signal force-exits. After a /finish that a degraded shard failed,
// the signal ends the process with that error and exit status 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"rtecgen/internal/parser"
	"rtecgen/internal/rtec"
	"rtecgen/internal/serve"
	"rtecgen/internal/telemetry"
	"rtecgen/internal/telemetry/journal"
)

// backoffSeed seeds every shard's restart backoff jitter. It is recorded in
// the lifecycle journal's shards_start record.
const backoffSeed = 7

type options struct {
	edPath        string
	listen        string
	window, slide int64
	start, end    int64
	maxDelay      int64
	workers       int
	lenient       bool

	checkpoint      string
	checkpointEvery int
	journalPath     string
	journalCap      int64
	resume          bool
	shards          int
	verbose         bool
}

func main() {
	var o options
	flag.StringVar(&o.edPath, "ed", "", "event-description file (required)")
	flag.StringVar(&o.listen, "listen", "127.0.0.1:0", "HTTP listen address (port 0 picks one; the bound address is printed to stderr)")
	flag.Int64Var(&o.window, "window", 0, "window size ω in time-points (required)")
	flag.Int64Var(&o.slide, "slide", 0, "slide between query times (0 = window)")
	flag.Int64Var(&o.start, "start", 0, "first time-point of the run (required: a daemon cannot inspect the whole stream up front)")
	flag.Int64Var(&o.end, "end", 0, "one past the last time-point of the run (required)")
	flag.Int64Var(&o.maxDelay, "max-delay", 0, "bounded-delay disorder tolerance in time-points")
	flag.IntVar(&o.workers, "workers", 0, "window-evaluation worker goroutines (0 = GOMAXPROCS)")
	flag.BoolVar(&o.lenient, "lenient", false, "quarantine malformed NDJSON lines instead of rejecting the request")
	flag.StringVar(&o.checkpoint, "checkpoint", "", "checkpoint base path (required): shard k parks into \"<base>.s<k>\" on drain")
	flag.IntVar(&o.checkpointEvery, "checkpoint-every", 1, "windows between snapshots")
	flag.StringVar(&o.journalPath, "journal", "", "append the lifecycle journal here and shard k's audit journal to \"<file>.s<k>\"")
	flag.Int64Var(&o.journalCap, "journal-cap", 0, "cap each journal's size in bytes (0 = unbounded)")
	flag.BoolVar(&o.resume, "resume", false, "resume a drained run from its suspend checkpoints (re-POST the same stream)")
	flag.IntVar(&o.shards, "shards", 1, "partition the stream across N supervised engine shards")
	flag.BoolVar(&o.verbose, "v", false, "structured debug logging to stderr")
	flag.Parse()

	if err := run(o, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "rtecd:", err)
		os.Exit(1)
	}
}

func run(o options, stderr *os.File) error {
	if o.edPath == "" {
		flag.Usage()
		return fmt.Errorf("-ed is required")
	}
	if o.checkpoint == "" {
		return fmt.Errorf("-checkpoint is required: the daemon parks into it on drain")
	}
	if o.window <= 0 {
		return fmt.Errorf("-window must be positive: a daemon plans its window sequence up front")
	}
	if o.start == 0 && o.end == 0 {
		return fmt.Errorf("-start and -end are required: a daemon cannot inspect the whole stream up front")
	}
	if o.journalPath != "" && o.journalPath == o.checkpoint {
		return fmt.Errorf("-journal and -checkpoint name the same file")
	}
	// The registry is read through GET /metrics while the process lives; with
	// no trace and no exit dump, Setup's flush has nothing to write.
	tel, _ := telemetry.CLIConfig{Verbose: o.verbose}.Setup(stderr, stderr)

	src, err := os.ReadFile(o.edPath)
	if err != nil {
		return err
	}
	ed, err := parser.ParseEventDescription(string(src))
	if err != nil {
		return fmt.Errorf("%s: %w", o.edPath, err)
	}
	eng, err := rtec.New(ed, rtec.Options{Strict: true, Workers: o.workers, Telemetry: tel})
	if err != nil {
		return err
	}

	d, err := serve.New(eng, serve.Options{
		Shards: o.shards,
		Stream: rtec.StreamOptions{
			RunOptions:      rtec.RunOptions{Window: o.window, Slide: o.slide, Start: o.start, End: o.end},
			MaxDelay:        o.maxDelay,
			CheckpointPath:  o.checkpoint,
			CheckpointEvery: o.checkpointEvery,
		},
		Seed:        backoffSeed,
		JournalPath: o.journalPath,
		JournalOpts: journal.Options{MaxBytes: o.journalCap},
		Resume:      o.resume,
		Lenient:     o.lenient,
		Telemetry:   tel,
	})
	if err != nil {
		return err
	}
	addr, err := d.Start(o.listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "rtecd: listening on %s\n", addr)

	// First signal drains gracefully; a second one force-exits — the
	// operator's escape hatch from a drain that cannot complete.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig) // a finished run must not force-exit whoever outlives it
	s := <-sig
	fmt.Fprintf(stderr, "rtecd: %s: draining\n", s)
	go func() {
		s := <-sig
		fmt.Fprintf(stderr, "rtecd: %s again: force exit\n", s)
		os.Exit(2)
	}()
	sts, err := d.Drain()
	for _, st := range sts {
		fmt.Fprintf(stderr, "rtecd: shard %d: parked consumed=%d windows=%d restarts=%d degraded=%v\n",
			st.Shard, st.Consumed, st.Windows, st.Restarts, st.Degraded)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "rtecd: drained (%s)\n", d.State())
	return nil
}
