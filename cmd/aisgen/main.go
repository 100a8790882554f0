// Command aisgen generates the synthetic Brest-like maritime scenario: raw
// AIS position signals or the preprocessed RTEC input-event stream, as CSV
// on stdout, plus the scenario's background knowledge as an RTEC fact file.
//
// Usage:
//
//	aisgen [-vessels N] [-seed S] [-interval SEC] [-repeat K] [-raw] [-background out.rtec] [-gold out.rtec]
//
// -repeat K writes K copies of the scenario's stream one after another in
// time, copy c shifted by c times the scenario's span (its first to last AIS
// report, plus one reporting interval): a stream K times as long over the
// same fleet and background knowledge. -repeat 1 is the scenario itself.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"rtecgen/internal/maritime"
	"rtecgen/internal/stream"
)

func main() {
	vessels := flag.Int("vessels", 60, "fleet size")
	seed := flag.Int64("seed", 7, "scenario seed")
	interval := flag.Int64("interval", 60, "AIS reporting cadence in seconds")
	repeat := flag.Int("repeat", 1, "write this many time-shifted copies of the stream")
	raw := flag.Bool("raw", false, "emit raw AIS messages instead of derived input events")
	background := flag.String("background", "", "also write the scenario background knowledge to this file")
	gold := flag.String("gold", "", "also write the gold-standard maritime event description to this file")
	flag.Parse()

	if err := run(os.Stdout, *vessels, *seed, *interval, *repeat, *raw, *background, *gold); err != nil {
		fmt.Fprintln(os.Stderr, "aisgen:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, vessels int, seed, interval int64, repeat int, raw bool, background, gold string) error {
	if repeat < 1 {
		return fmt.Errorf("-repeat %d: want at least 1 copy", repeat)
	}
	if gold != "" {
		if err := os.WriteFile(gold, []byte(maritime.GoldSource()), 0o644); err != nil {
			return err
		}
	}
	scen, err := maritime.BuildScenario(maritime.ScenarioConfig{
		Vessels: vessels, Seed: seed, IntervalSec: interval,
	})
	if err != nil {
		return err
	}

	var span int64
	if n := len(scen.Messages); n > 0 {
		first, last := scen.Messages[0].Time, scen.Messages[0].Time
		for _, m := range scen.Messages {
			first, last = min(first, m.Time), max(last, m.Time)
		}
		span = last - first + interval
	}

	if raw {
		for c := int64(0); c < int64(repeat); c++ {
			for _, m := range scen.Messages {
				if _, err := fmt.Fprintf(w, "%d,%s,%.4f,%.4f,%.2f,%.2f,%.2f\n",
					m.Time+c*span, m.Vessel, m.Pos.X, m.Pos.Y, m.SpeedKn, m.COG, m.Heading); err != nil {
					return err
				}
			}
		}
		return nil
	}

	events := maritime.Preprocess(scen.Messages, scen.Map, maritime.DefaultPreprocessConfig())
	if background != "" {
		pairs := maritime.ObservedPairs(events)
		f, err := os.Create(background)
		if err != nil {
			return err
		}
		defer f.Close()
		for _, c := range maritime.BackgroundClauses(scen.Map, scen.Fleet, pairs) {
			fmt.Fprintln(f, c)
		}
		for _, fact := range maritime.DynamicFacts(events, scen.Fleet) {
			fmt.Fprintf(f, "%s.\n", fact)
		}
	}
	shifted := make(stream.Stream, len(events))
	for c := int64(0); c < int64(repeat); c++ {
		for i, e := range events {
			shifted[i] = stream.Event{Time: e.Time + c*span, Atom: e.Atom}
		}
		if err := shifted.WriteCSV(w); err != nil {
			return err
		}
	}
	return nil
}
