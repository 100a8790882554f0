// Command rtec runs the Run-Time Event Calculus over an event stream: given
// an event-description file (rules, declarations and background knowledge)
// and a CSV stream of input events, it prints the maximal intervals of
// every recognised fluent-value pair. It is the one-shot reference: it reads
// a file, runs to completion and exits. The long-lived service — HTTP
// ingest, subscriptions, /metrics, /healthz, /debug/pprof/, graceful drain —
// is cmd/rtecd.
//
// Usage:
//
//	rtec -ed rules.rtec -stream events.csv [-window W] [-slide S] [-fluent name/arity] [-strict]
//	     [-lenient] [-workers N] [-no-delta] [-max-delay D] [-checkpoint file [-checkpoint-every N] [-resume]]
//	     [-journal file [-journal-cap N] [-journal-wall]]
//	     [-shards N [-shard-faults spec] [-shard-deadline D] [-shard-queue N] [-shard-overflow policy]]
//	     [-trace out.json] [-metrics] [-v]
//
// Stream rows have the form "time,eventName,arg1,arg2,..."; -format ndjson
// reads rtecd's wire format instead ({"time":10,"atom":"f(a)"} per line).
// With -lenient, malformed rows are quarantined and reported on stderr
// instead of aborting the run.
//
// Streaming robustness: -max-delay D treats the CSV as an arrival-ordered
// stream that may be out of order by up to D time-points — late events
// within the bound revise the affected windows, older ones are counted and
// dropped. -checkpoint writes a crash-safe snapshot every -checkpoint-every
// windows; -resume restores it and continues, producing output identical to
// an uninterrupted run — a killed run loses at most the windows since its
// last snapshot. -crash-after kills the run after N windows (for
// fault-injection drills). Without any of these flags the classic batch
// path runs, byte-identical to previous releases.
//
// Observability: -trace writes a Chrome trace_event JSON of the run (one
// span per window and per fluent stratum; open in chrome://tracing or
// Perfetto), -metrics dumps the telemetry registry to stderr at exit and -v
// lowers the structured-log level to debug. -journal appends the
// structured recognition audit journal (JSONL; see internal/telemetry/
// journal) with -journal-cap bounding its size and -journal-wall stamping
// real wall-clock times instead of the deterministic default. On -resume an
// existing journal is validated, a torn trailing line is truncated, and the
// run continues it after a journal_recovered marker.
//
// Sharded operation: -shards N partitions the stream by consistent entity
// hash across N supervised engine shards (internal/shard), each with its own
// checkpoint file ("<-checkpoint>.s<k>") and journal ("<-journal>.s<k>");
// the main -journal file carries the supervisor's lifecycle events. Shards
// recover from crashes on their own: panics restart from the last
// checkpoint, shards stalled past -shard-deadline are killed and restarted,
// torn checkpoints fall back to the previous generation, and a shard that
// exhausts its -shard-restarts budget degrades (reported on stderr; the run
// still exits 0 with a partial merge) instead of taking the run down.
// -shard-queue and -shard-overflow bound per-shard ingest admission;
// -shard-faults injects a deterministic failure schedule (e.g. "panic@w3"
// or "ckpt-truncate@w2,panic@w3:s0") for chaos drills — the output stays
// byte-identical to a fault-free run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"rtecgen/internal/clock"
	"rtecgen/internal/parser"
	"rtecgen/internal/rtec"
	"rtecgen/internal/shard"
	"rtecgen/internal/shard/fault"
	"rtecgen/internal/stream"
	"rtecgen/internal/telemetry"
	"rtecgen/internal/telemetry/journal"
)

// options carries every flag of the command.
type options struct {
	edPath, streamPath string
	format             string
	window, slide      int64
	fluent             string
	strict, csvOut     bool
	lenient            bool
	workers            int
	noDelta            bool
	maxDelay           int64
	checkpoint         string
	checkpointEvery    int
	resume             bool
	crashAfter         int
	journalPath        string
	journalCap         int64
	journalWall        bool
	shards             int
	shardFaults        string
	shardDeadline      time.Duration
	shardQueue         int
	shardOverflow      string
	shardRestarts      int
	shardSeed          int64
	tel                telemetry.CLIConfig
}

func main() {
	var o options
	flag.StringVar(&o.edPath, "ed", "", "event-description file (required)")
	flag.StringVar(&o.streamPath, "stream", "", "input event stream file (required)")
	flag.StringVar(&o.format, "format", "csv", `input stream serialisation: "csv" or "ndjson" (rtecd's wire format)`)
	flag.Int64Var(&o.window, "window", 0, "window size ω in time-points (0 = whole stream)")
	flag.Int64Var(&o.slide, "slide", 0, "slide between query times (0 = window)")
	flag.StringVar(&o.fluent, "fluent", "", "only print FVPs of this fluent indicator, e.g. trawling/1")
	flag.BoolVar(&o.strict, "strict", false, "fail on any event-description problem instead of warning")
	flag.BoolVar(&o.csvOut, "csv", false, "emit CSV (fluent,fvp,since,until) instead of holdsFor lines")
	flag.BoolVar(&o.lenient, "lenient", false, "quarantine malformed stream rows instead of aborting")
	flag.IntVar(&o.workers, "workers", 0, "window-evaluation worker goroutines (0 = GOMAXPROCS, 1 = sequential); output is identical at any count")
	flag.BoolVar(&o.noDelta, "no-delta", false, "disable incremental sliding-window evaluation (full re-evaluation oracle); output is identical, only slower")
	flag.Int64Var(&o.maxDelay, "max-delay", 0, "bounded-delay disorder tolerance in time-points (streaming ingestion)")
	flag.StringVar(&o.checkpoint, "checkpoint", "", "write crash-safe snapshots to this file (streaming ingestion)")
	flag.IntVar(&o.checkpointEvery, "checkpoint-every", 1, "windows between snapshots")
	flag.BoolVar(&o.resume, "resume", false, "restore the -checkpoint snapshot and continue the run")
	flag.IntVar(&o.crashAfter, "crash-after", 0, "fault injection: abort after N windows (0 = never)")
	flag.StringVar(&o.journalPath, "journal", "", "append the recognition audit journal (JSONL) to this file (streaming ingestion)")
	flag.Int64Var(&o.journalCap, "journal-cap", 0, "cap the journal size in bytes (0 = unbounded); a journal_capped marker ends a capped journal")
	flag.BoolVar(&o.journalWall, "journal-wall", false, "stamp journal records with real wall-clock times instead of the deterministic default")
	flag.IntVar(&o.shards, "shards", 0, "partition the stream across N supervised engine shards (0/1 = unsharded)")
	flag.StringVar(&o.shardFaults, "shard-faults", "", `inject a deterministic shard fault schedule, e.g. "panic@w3" or "ckpt-truncate@w2,panic@w3:s0"`)
	flag.DurationVar(&o.shardDeadline, "shard-deadline", 10*time.Second, "kill and restart a shard making no progress for this long")
	flag.IntVar(&o.shardQueue, "shard-queue", 256, "per-shard bound on unconsumed arrivals (admitted, not yet taken by the shard)")
	flag.StringVar(&o.shardOverflow, "shard-overflow", "block", "admission policy while a shard has -shard-queue unconsumed arrivals: block, drop or error")
	flag.IntVar(&o.shardRestarts, "shard-restarts", 5, "restarts per shard before it degrades")
	flag.Int64Var(&o.shardSeed, "shard-seed", 7, "seed for per-shard restart backoff jitter")
	flag.StringVar(&o.tel.TracePath, "trace", "", "write a Chrome trace_event JSON of the run to this file")
	flag.BoolVar(&o.tel.Metrics, "metrics", false, "dump the telemetry registry to stderr at exit")
	flag.BoolVar(&o.tel.Verbose, "v", false, "structured debug logging to stderr")
	flag.Parse()

	if err := run(o, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "rtec:", err)
		os.Exit(1)
	}
}

// streaming reports whether any flag asks for the out-of-order streaming
// path. With none of them set the classic batch path runs, byte-identical
// to previous releases. The audit journal is a feature of the streaming
// engine, so asking for it routes the run through it too.
func (o options) streaming() bool {
	return o.maxDelay > 0 || o.checkpoint != "" || o.resume || o.crashAfter > 0 || o.journalPath != ""
}

func run(o options, stdout, stderr *os.File) error {
	if o.edPath == "" || o.streamPath == "" {
		flag.Usage()
		return fmt.Errorf("-ed and -stream are required")
	}
	if o.resume && o.checkpoint == "" {
		return fmt.Errorf("-resume needs -checkpoint to name the snapshot")
	}
	if o.journalPath != "" && o.journalPath == o.checkpoint {
		return fmt.Errorf("-journal and -checkpoint name the same file")
	}
	if o.fluent != "" && o.csvOut {
		return fmt.Errorf("-fluent does not apply to -csv output: it filters the holdsFor listing only")
	}
	if o.shardFaults != "" && o.shards <= 1 {
		return fmt.Errorf("-shard-faults needs -shards N>1: an unsharded run has no shard to inject into")
	}
	plan, err := fault.Parse(o.shardFaults)
	if err != nil {
		return err
	}
	if o.shards > 1 {
		if o.resume {
			return fmt.Errorf("-resume does not apply to sharded runs: shards recover from their own checkpoints in-process")
		}
		if o.crashAfter > 0 {
			return fmt.Errorf("-crash-after does not apply to sharded runs: use -shard-faults")
		}
	}
	tel, flush := o.tel.Setup(stderr, stderr)

	// The audit journal: one writer for the whole run, wall timestamps only
	// on request (the deterministic default journals byte-identically across
	// same-seed runs). A resumed run continues the crashed run's journal:
	// the existing file is validated, a torn trailing line is truncated, and
	// a journal_recovered marker separates the old records from the new.
	jopts := journal.Options{MaxBytes: o.journalCap}
	if o.journalWall {
		jopts.Now = clock.Real().Now
	}
	var jw *journal.Writer
	if o.journalPath != "" {
		jf, w, info, err := journal.Open(o.journalPath, jopts, o.resume, true)
		if err != nil {
			return err
		}
		defer jf.Close()
		jw = w
		if info != nil {
			fmt.Fprintf(stderr, "rtec: journal: recovered %d records (%d torn bytes truncated)\n",
				info.Records, info.Truncated)
		}
	}

	src, err := os.ReadFile(o.edPath)
	if err != nil {
		return err
	}
	ed, err := parser.ParseEventDescription(string(src))
	if err != nil {
		return fmt.Errorf("%s: %w", o.edPath, err)
	}
	f, err := os.Open(o.streamPath)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := readStream(o, f, stderr)
	if err != nil {
		return err
	}

	// Load and runtime warnings surface on the telemetry logger (with
	// fluent and window attributes) as the engine encounters them.
	eng, err := rtec.New(ed, rtec.Options{Strict: o.strict, Workers: o.workers, DisableDelta: o.noDelta, Telemetry: tel})
	if err != nil {
		return err
	}
	var rec *rtec.Recognition
	switch {
	case o.shards > 1:
		rec, err = runSharded(o, eng, events, plan, jw, jopts, tel, stderr)
	case o.streaming():
		rec, err = runStreaming(o, eng, events, jw, stderr)
	default:
		rec, err = eng.Run(events, rtec.RunOptions{Window: o.window, Slide: o.slide})
	}
	if err != nil {
		return err
	}
	if o.csvOut {
		if err := rec.WriteCSV(stdout); err != nil {
			return err
		}
		return flush()
	}
	for _, key := range rec.Keys() {
		if o.fluent != "" {
			fvp := rec.FVP(key)
			if fvp.Args[0].Indicator() != o.fluent {
				continue
			}
		}
		fmt.Fprintf(stdout, "holdsFor(%s, %s)\n", key, rec.IntervalsOfKey(key))
	}
	return flush()
}

// readStream parses the input stream in the configured serialisation (-format
// csv or ndjson), quarantining malformed rows under -lenient.
func readStream(o options, f *os.File, stderr *os.File) (stream.Stream, error) {
	readStrict, readLenient := stream.ReadCSV, stream.ReadCSVLenient
	switch o.format {
	case "csv", "":
	case "ndjson":
		readStrict, readLenient = stream.ReadNDJSON, stream.ReadNDJSONLenient
	default:
		return nil, fmt.Errorf("unknown -format %q (want csv or ndjson)", o.format)
	}
	if !o.lenient {
		return readStrict(f)
	}
	events, bad, err := readLenient(f)
	if err != nil {
		return nil, err
	}
	if len(bad) > 0 {
		fmt.Fprintf(stderr, "rtec: quarantined %d malformed stream rows:\n", len(bad))
		for _, b := range bad {
			fmt.Fprintf(stderr, "  %s\n", b)
		}
	}
	return events, nil
}

// runStreaming drives the out-of-order ingestion path: the CSV rows are an
// arrival-ordered stream fed through the bounded-delay reorder buffer, with
// optional checkpointing, resume and fault injection.
func runStreaming(o options, eng *rtec.Engine, events stream.Stream, jw *journal.Writer, stderr *os.File) (*rtec.Recognition, error) {
	opts := rtec.StreamOptions{
		RunOptions:      rtec.RunOptions{Window: o.window, Slide: o.slide},
		MaxDelay:        o.maxDelay,
		CheckpointPath:  o.checkpoint,
		CheckpointEvery: o.checkpointEvery,
		Journal:         jw,
	}
	var fn func(rtec.WindowResult) error
	if o.crashAfter > 0 {
		left := o.crashAfter
		fn = func(wr rtec.WindowResult) error {
			if wr.Revision == 0 {
				left--
				if left <= 0 {
					return fmt.Errorf("simulated crash after %d windows (-crash-after)", o.crashAfter)
				}
			}
			return nil
		}
	}
	var res *rtec.StreamResult
	var err error
	if o.resume {
		res, err = eng.ResumeStream(o.checkpoint, events, opts, fn)
	} else {
		res, err = eng.RunStream(events, opts, fn)
	}
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "rtec: stream: %s\n", res.Stats)
	return res.Recognition, nil
}

// runSharded drives the supervised shard runtime: the stream is partitioned
// by consistent entity hash across -shards crash-recovering engine shards,
// and the per-shard recognitions are merged. Shard k checkpoints to
// "<-checkpoint>.s<k>" and journals to "<-journal>.s<k>"; the main journal
// carries the supervisor's lifecycle events (restarts, kills, degradation).
func runSharded(o options, eng *rtec.Engine, events stream.Stream, plan *fault.Plan, jw *journal.Writer,
	jopts journal.Options, tel *telemetry.Telemetry, stderr *os.File) (*rtec.Recognition, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("sharded runs need a non-empty stream to bound the time-line")
	}
	overflow, err := shard.ParseOverflow(o.shardOverflow)
	if err != nil {
		return nil, err
	}
	// Per-shard journal files. The shard runtime stages records and commits
	// them one checkpoint generation behind, so every file stays
	// byte-identical to a fault-free run's even across crashes.
	var journalFor func(k int) io.Writer
	if o.journalPath != "" {
		files := make([]*os.File, o.shards)
		for k := range files {
			f, err := os.Create(fmt.Sprintf("%s.s%d", o.journalPath, k))
			if err != nil {
				return nil, fmt.Errorf("journal: %w", err)
			}
			defer f.Close()
			files[k] = f
		}
		journalFor = func(k int) io.Writer { return files[k] }
	}
	first, last := events.TimeRange()
	sup, err := shard.NewSupervisor(eng, shard.Options{
		Shards: o.shards,
		Stream: rtec.StreamOptions{
			RunOptions:      rtec.RunOptions{Window: o.window, Slide: o.slide, Start: first, End: last + 1},
			MaxDelay:        o.maxDelay,
			CheckpointPath:  o.checkpoint,
			CheckpointEvery: o.checkpointEvery,
		},
		JournalFor:  journalFor,
		JournalOpts: jopts,
		Events:      jw,
		QueueDepth:  o.shardQueue,
		Overflow:    overflow,
		Deadline:    o.shardDeadline,
		MaxRestarts: o.shardRestarts,
		Seed:        o.shardSeed,
		Faults:      plan,
		Telemetry:   tel,
	})
	if err != nil {
		return nil, err
	}
	var ingestErr error
	for _, e := range events {
		if err := sup.Ingest(e); err != nil {
			// Strict admission failed; stop feeding but still close cleanly
			// so the healthy shards' work is accounted for.
			ingestErr = err
			break
		}
	}
	res, closeErr := sup.Close()
	if res != nil {
		fmt.Fprintf(stderr, "rtec: shards: %s\n", res.Stats)
		for _, st := range res.Shards {
			fmt.Fprintf(stderr, "rtec: shard %d: consumed=%d windows=%d restarts=%d kills=%d dropped=%d degraded=%v\n",
				st.Shard, st.Consumed, st.Windows, st.Restarts, st.Kills, st.Dropped, st.Degraded)
			if st.Degraded {
				fmt.Fprintf(stderr, "rtec: shard %d degraded: %s\n", st.Shard, st.Err)
			}
		}
	}
	if ingestErr != nil {
		return nil, ingestErr
	}
	if closeErr != nil {
		return nil, closeErr
	}
	return res.Recognition, nil
}
