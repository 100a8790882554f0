// Command rtec runs the Run-Time Event Calculus over an event stream: given
// an event-description file (rules, declarations and background knowledge)
// and a CSV stream of input events, it prints the maximal intervals of
// every recognised fluent-value pair. It is the unsharded, sequential,
// one-shot reference: it reads a file, evaluates every window in one
// goroutine on one engine, runs to completion and exits. Everything
// sharded and long-lived — the supervised shard runtime, HTTP ingest,
// subscriptions, /metrics, /healthz, /debug/pprof/, graceful drain — is
// cmd/rtecd.
//
// Usage:
//
//	rtec -ed rules.rtec -stream events.csv [-window W] [-slide S] [-fluent name/arity] [-strict]
//	     [-lenient] [-max-delay D] [-checkpoint file [-checkpoint-every N] [-resume]]
//	     [-journal file [-journal-cap N] [-journal-wall]]
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
// last snapshot. Without any of these flags the classic batch path runs,
// byte-identical to previous releases.
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
// The engine refuses a negative -window or -slide, and a negative
// -checkpoint-every on the streaming path (the only one that reads it);
// zero keeps its meaning above.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"rtecgen/internal/clock"
	"rtecgen/internal/parser"
	"rtecgen/internal/rtec"
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
	maxDelay           int64
	checkpoint         string
	checkpointEvery    int
	resume             bool
	journalPath        string
	journalCap         int64
	journalWall        bool
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
	flag.Int64Var(&o.maxDelay, "max-delay", 0, "bounded-delay disorder tolerance in time-points (streaming ingestion)")
	flag.StringVar(&o.checkpoint, "checkpoint", "", "write crash-safe snapshots to this file (streaming ingestion)")
	flag.IntVar(&o.checkpointEvery, "checkpoint-every", 1, "windows between snapshots")
	flag.BoolVar(&o.resume, "resume", false, "restore the -checkpoint snapshot and continue the run")
	flag.StringVar(&o.journalPath, "journal", "", "append the recognition audit journal (JSONL) to this file (streaming ingestion)")
	flag.Int64Var(&o.journalCap, "journal-cap", 0, "cap the journal size in bytes (0 = unbounded); a journal_capped marker ends a capped journal")
	flag.BoolVar(&o.journalWall, "journal-wall", false, "stamp journal records with real wall-clock times instead of the deterministic default")
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
	return o.maxDelay > 0 || o.checkpoint != "" || o.resume || o.journalPath != ""
}

func run(o options, stdout, stderr io.Writer) error {
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
	eng, err := rtec.New(ed, rtec.Options{Strict: o.strict, Workers: 1, Telemetry: tel})
	if err != nil {
		return err
	}
	var rec *rtec.Recognition
	if o.streaming() {
		rec, err = runStreaming(o, eng, events, jw, stderr)
	} else {
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
func readStream(o options, f io.Reader, stderr io.Writer) (stream.Stream, error) {
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
// optional checkpointing and resume.
func runStreaming(o options, eng *rtec.Engine, events stream.Stream, jw *journal.Writer, stderr io.Writer) (*rtec.Recognition, error) {
	opts := rtec.StreamOptions{
		RunOptions:      rtec.RunOptions{Window: o.window, Slide: o.slide},
		MaxDelay:        o.maxDelay,
		CheckpointPath:  o.checkpoint,
		CheckpointEvery: o.checkpointEvery,
		Journal:         jw,
	}
	var res *rtec.StreamResult
	var err error
	if o.resume {
		res, err = eng.ResumeStream(o.checkpoint, events, opts, nil)
	} else {
		res, err = eng.RunStream(events, opts, nil)
	}
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "rtec: stream: %s\n", res.Stats)
	return res.Recognition, nil
}
