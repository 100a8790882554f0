// Command disorder perturbs an event-stream CSV into a reproducible
// out-of-order arrival sequence: every event is assigned a seeded random
// delivery delay in [0, max-delay] and rows are emitted in delivery order,
// so no event is displaced beyond the bound (stream.Perturb, which the
// contract tests call in-process): a stream shuffled by this tool, ingested
// by `rtecd -max-delay`, must converge to the in-order run's output.
//
// Usage:
//
//	disorder -in events.csv -out shuffled.csv [-out-format csv|ndjson]
//	         [-max-delay D] [-seed S] [-dup-every N]
//
// -dup-every N re-emits every Nth event immediately after its original, an
// exact duplicate the ingestion layer must count and discard. -out-format
// ndjson emits rtecd's ingest wire format instead of CSV; the same seed
// produces the same arrival order in either serialisation. A summary of the
// perturbation is printed to stderr.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"rtecgen/internal/stream"
)

type options struct {
	in, out   string
	outFormat string
	maxDelay  int64
	seed      int64
	dupEvery  int
}

func main() {
	var o options
	flag.StringVar(&o.in, "in", "", "input event stream CSV (required)")
	flag.StringVar(&o.out, "out", "", "output file of the perturbed arrival order (required)")
	flag.StringVar(&o.outFormat, "out-format", "csv", `output serialisation: "csv" or "ndjson" (rtecd's ingest wire format; same seed, same arrival order)`)
	flag.Int64Var(&o.maxDelay, "max-delay", 0, "maximum delivery delay in time-points")
	flag.Int64Var(&o.seed, "seed", 1, "random seed (runs are byte-reproducible per seed)")
	flag.IntVar(&o.dupEvery, "dup-every", 0, "duplicate every Nth event (0 = none)")
	flag.Parse()

	if err := run(o, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "disorder:", err)
		os.Exit(1)
	}
}

func run(o options, stderr *os.File) error {
	if o.in == "" || o.out == "" {
		flag.Usage()
		return fmt.Errorf("-in and -out are required")
	}
	if o.maxDelay < 0 {
		return fmt.Errorf("negative -max-delay %d", o.maxDelay)
	}
	f, err := os.Open(o.in)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := stream.ReadCSV(f)
	if err != nil {
		return err
	}
	events.Sort()

	perturbed, late, dups := stream.Perturb(events, rand.New(rand.NewSource(o.seed)), o.maxDelay, o.dupEvery)

	var write func(stream.Stream, *os.File) error
	switch o.outFormat {
	case "csv", "":
		write = func(s stream.Stream, f *os.File) error { return s.WriteCSV(f) }
	case "ndjson":
		write = func(s stream.Stream, f *os.File) error { return s.WriteNDJSON(f) }
	default:
		return fmt.Errorf("unknown -out-format %q (want csv or ndjson)", o.outFormat)
	}
	out, err := os.Create(o.out)
	if err != nil {
		return err
	}
	if err := write(perturbed, out); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "disorder: %d events, %d displaced, %d duplicated (max-delay %d, seed %d)\n",
		len(events), late, dups, o.maxDelay, o.seed)
	return nil
}
