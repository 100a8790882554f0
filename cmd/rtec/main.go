// Command rtec runs the Run-Time Event Calculus over an event stream: given
// an event-description file (rules, declarations and background knowledge)
// and a CSV stream of input events, it prints the maximal intervals of
// every recognised fluent-value pair. It is the sequential batch
// reference: it reads a file, evaluates every window in one goroutine on
// one engine, runs to completion and exits. Streaming ingestion —
// out-of-order arrivals within a delay bound, checkpoints and resume, the
// audit journal — and everything long-lived (HTTP ingest, subscriptions,
// /metrics, /healthz, /debug/pprof/, graceful drain) is cmd/rtecd, whose
// /finish CSV is this command's over the same events.
//
// Usage:
//
//	rtec -ed rules.rtec -stream events.csv [-window W] [-slide S] [-fluent name/arity]
//	     [-csv] [-format csv|ndjson] [-lenient] [-trace out.json] [-metrics] [-v]
//
// The event description loads strictly: a rule the engine cannot run (a
// cyclic definition, a malformed condition) fails the command before the
// stream is read. Runtime warnings stay warnings.
//
// Stream rows have the form "time,eventName,arg1,arg2,..."; -format ndjson
// reads rtecd's wire format instead ({"time":10,"atom":"f(a)"} per line).
// The rows are sorted by time before recognition, so their order in the
// file does not matter. With -lenient, malformed rows are quarantined and
// reported on stderr instead of aborting the run.
//
// Observability: -trace writes a Chrome trace_event JSON of the run (one
// span per window and per fluent stratum; open in chrome://tracing or
// Perfetto), -metrics dumps the telemetry registry to stderr at exit and -v
// lowers the structured-log level to debug.
//
// The engine refuses a negative -window or -slide; zero keeps its meaning
// above.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"rtecgen/internal/parser"
	"rtecgen/internal/rtec"
	"rtecgen/internal/stream"
	"rtecgen/internal/telemetry"
)

// options carries every flag of the command.
type options struct {
	edPath, streamPath string
	format             string
	window, slide      int64
	fluent             string
	csvOut, lenient    bool
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
	flag.BoolVar(&o.csvOut, "csv", false, "emit CSV (fluent,fvp,since,until) instead of holdsFor lines")
	flag.BoolVar(&o.lenient, "lenient", false, "quarantine malformed stream rows instead of aborting")
	flag.StringVar(&o.tel.TracePath, "trace", "", "write a Chrome trace_event JSON of the run to this file")
	flag.BoolVar(&o.tel.Metrics, "metrics", false, "dump the telemetry registry to stderr at exit")
	flag.BoolVar(&o.tel.Verbose, "v", false, "structured debug logging to stderr")
	flag.Parse()

	if err := run(o, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "rtec:", err)
		os.Exit(1)
	}
}

func run(o options, stdout, stderr io.Writer) error {
	if o.edPath == "" || o.streamPath == "" {
		flag.Usage()
		return fmt.Errorf("-ed and -stream are required")
	}
	if o.fluent != "" && o.csvOut {
		return fmt.Errorf("-fluent does not apply to -csv output: it filters the holdsFor listing only")
	}
	tel, flush := o.tel.Setup(stderr, stderr)

	src, err := os.ReadFile(o.edPath)
	if err != nil {
		return err
	}
	ed, err := parser.ParseEventDescription(string(src))
	if err != nil {
		return fmt.Errorf("%s: %w", o.edPath, err)
	}
	// Strict, before the stream is read. Runtime warnings surface on the
	// telemetry logger as the engine meets them.
	eng, err := rtec.New(ed, rtec.Options{Strict: true, Telemetry: tel})
	if err != nil {
		return err
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

	rec, err := eng.Run(events, rtec.RunOptions{Window: o.window, Slide: o.slide})
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
