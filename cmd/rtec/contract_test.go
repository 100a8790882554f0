package main

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"rtecgen/internal/maritime"
	"rtecgen/internal/stream"
	"rtecgen/internal/telemetry"
)

// writeShellInput writes the maritime scenario at 14 vessels, seed 7 and
// interval 60 as aisgen writes it: the gold event description followed by
// the background knowledge, and the event CSV. It returns the two files'
// paths.
func writeShellInput(t *testing.T) (ed, events string) {
	t.Helper()
	scen, err := maritime.BuildScenario(maritime.ScenarioConfig{Vessels: 14, Seed: 7, IntervalSec: 60})
	if err != nil {
		t.Fatal(err)
	}
	evs := stream.Stream(maritime.Preprocess(scen.Messages, scen.Map, maritime.DefaultPreprocessConfig()))
	var src, csv strings.Builder
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
	return write(t, "ed.rtec", src.String()), write(t, "events.csv", csv.String())
}

// counterIs reports whether a -metrics dump has the counter name at a value
// matching the regexp value.
func counterIs(dump, name, value string) bool {
	return regexp.MustCompile(`(?m)^counter ` + regexp.QuoteMeta(name) + ` ` + value + `$`).MatchString(dump)
}

// TestContractGates holds the CLI's contracts (DESIGN.md §9) on the
// maritime scenario. The streaming contracts on the same input are
// internal/rtec's contract tests and internal/shard's
// TestShardCheckpointGenerationFallback/maritime.
func TestContractGates(t *testing.T) {
	ed, events := writeShellInput(t)
	t.Run("telemetry smoke", func(t *testing.T) {
		// `rtec -ed ed.rtec -stream events.csv -window 3600 -trace t.json -metrics`.
		o := opts(ed, events)
		o.window = 3600
		o.tel = telemetry.CLIConfig{TracePath: filepath.Join(t.TempDir(), "trace.json"), Metrics: true}
		_, dump := mustRun(t, o)
		spans := traceSpans(t, o.tel.TracePath)
		if spans["rtec.run"] == 0 || spans["rtec.window"] == 0 || spans["rtec.fluent"] == 0 {
			t.Errorf("the trace lacks an engine span: %v", spans)
		}
		if !counterIs(dump, "rtec.windows.evaluated_total", "[1-9][0-9]*") {
			t.Errorf("no rtec.windows.evaluated_total in\n%s", dump)
		}
	})
}
