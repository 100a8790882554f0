package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"rtecgen/internal/maritime"
	"rtecgen/internal/rtec"
	"rtecgen/internal/stream"
	"rtecgen/internal/telemetry"
	"rtecgen/internal/telemetry/journal"
)

// writeShellInput writes the maritime scenario at 14 vessels, seed 7 and
// interval 60 as aisgen writes it (the gold event description followed by
// the background knowledge, and the event CSV), and that stream shuffled as
// disorder shuffles it at max-delay 900, seed 13 and a duplicate every 50
// events. It returns the three files' paths.
func writeShellInput(t *testing.T) (ed, events, shuffled string) {
	t.Helper()
	scen, err := maritime.BuildScenario(maritime.ScenarioConfig{Vessels: 14, Seed: 7, IntervalSec: 60})
	if err != nil {
		t.Fatal(err)
	}
	evs := stream.Stream(maritime.Preprocess(scen.Messages, scen.Map, maritime.DefaultPreprocessConfig()))
	var src, csv, shuf strings.Builder
	src.WriteString(maritime.GoldSource())
	for _, c := range maritime.BackgroundClauses(scen.Map, scen.Fleet, maritime.ObservedPairs(evs)) {
		fmt.Fprintln(&src, c)
	}
	for _, fact := range maritime.DynamicFacts(evs, scen.Fleet) {
		fmt.Fprintf(&src, "%s.\n", fact)
	}
	if err := evs.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	evs.Sort()
	arrivals, _, _ := stream.Perturb(evs, rand.New(rand.NewSource(13)), 900, 50)
	if err := arrivals.WriteCSV(&shuf); err != nil {
		t.Fatal(err)
	}
	return write(t, "ed.rtec", src.String()), write(t, "events.csv", csv.String()), write(t, "shuffled.csv", shuf.String())
}

// counterIs reports whether a -metrics dump has the counter name at a value
// matching the regexp value.
func counterIs(dump, name, value string) bool {
	return regexp.MustCompile(`(?m)^counter ` + regexp.QuoteMeta(name) + ` ` + value + `$`).MatchString(dump)
}

// validJournal reads the journal at path and validates it.
func validJournal(t *testing.T, path string) ([]byte, journal.Stats) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := journal.Validate(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return data, stats
}

// TestContractGates holds the CLI's byte-identity contracts (DESIGN.md §9) on
// the maritime scenario: every run's recognition is the in-order batch
// run's, byte for byte. The shard-chaos contract on the same input is
// internal/shard's TestShardCheckpointGenerationFallback/maritime.
func TestContractGates(t *testing.T) {
	ed, events, shuffled := writeShellInput(t)
	dir := t.TempDir()
	// shell is `rtec -ed ed.rtec -stream <streamPath> -window 3600 -csv`,
	// streaming at -max-delay 900 over the shuffled stream.
	shell := func(streamPath string) options {
		o := opts(ed, streamPath)
		o.window, o.csvOut = 3600, true
		if streamPath == shuffled {
			o.maxDelay = 900
		}
		return o
	}
	want, _ := mustRun(t, shell(events))
	for _, gate := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"telemetry smoke", func(t *testing.T) {
			o := shell(events)
			o.csvOut = false
			o.tel = telemetry.CLIConfig{TracePath: filepath.Join(dir, "trace.json"), Metrics: true}
			_, dump := mustRun(t, o)
			spans := traceSpans(t, o.tel.TracePath)
			if spans["rtec.run"] == 0 || spans["rtec.window"] == 0 || spans["rtec.fluent"] == 0 {
				t.Errorf("the trace lacks an engine span: %v", spans)
			}
			if !counterIs(dump, "rtec.windows.evaluated_total", "[1-9][0-9]*") {
				t.Errorf("no rtec.windows.evaluated_total in\n%s", dump)
			}
		}},
		{"streaming", func(t *testing.T) {
			o := shell(shuffled)
			o.journalPath, o.checkpoint = filepath.Join(dir, "streamed.jsonl"), filepath.Join(dir, "streamed.ckpt")
			o.tel.Metrics = true
			if got, dump := mustRun(t, o); got != want || !counterIs(dump, "rtec.duplicate_events_total", "[1-9][0-9]*") {
				t.Errorf("the shuffled replay diverged from the in-order baseline (%v) or counted no duplicate:\n%s", got != want, dump)
			}
			// A run killed after 3 windows is resumed to the same CSV.
			r := shell(shuffled)
			r.checkpoint, r.resume, r.tel.Metrics = filepath.Join(dir, "run.ckpt"), true, true
			crashRun(t, ed, shuffled, rtec.StreamOptions{
				RunOptions: rtec.RunOptions{Window: 3600}, MaxDelay: 900, CheckpointPath: r.checkpoint,
			}, 3)
			if got, dump := mustRun(t, r); got != want || !counterIs(dump, "rtec.checkpoint.restores_total", "1") {
				t.Errorf("the resumed run diverged from the baseline (%v) or restored other than once:\n%s", got != want, dump)
			}
		}},
		{"live observability", func(t *testing.T) {
			var journals [2][]byte
			for i := range journals {
				o := shell(shuffled)
				o.journalPath = filepath.Join(dir, fmt.Sprintf("run%d.jsonl", i))
				if got, _ := mustRun(t, o); got != want {
					t.Fatal("the recognition changed under -journal")
				}
				data, stats := validJournal(t, o.journalPath)
				if stats.Types["run_start"] == 0 || stats.Types["window"] == 0 || stats.Types["run_end"] == 0 {
					t.Errorf("the journal lacks the run plan, a window or the final statistics: %v", stats.Types)
				}
				journals[i] = data
			}
			if !bytes.Equal(journals[0], journals[1]) {
				t.Error("same-seed journals differ")
			}
			if !regexp.MustCompile(`"type":"window".*"emit_lag":[1-9]`).Match(journals[0]) {
				t.Error("no window record has emit_lag > 0 on a disordered stream")
			}
		}},
	} {
		t.Run(gate.name, gate.run)
	}
}
