package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rtecgen/internal/clock"
	"rtecgen/internal/maritime"
	"rtecgen/internal/parser"
	"rtecgen/internal/rtec"
	"rtecgen/internal/stream"
	"rtecgen/internal/telemetry"
)

// smokeInput builds a daemon workload's inputs in-process (the benchmark
// itself shells out to aisgen, disorder and rtec): the 14-vessel scenario at
// a coarse reporting interval, in order, with the batch engine as oracle.
func smokeInput(t *testing.T, w workload) *daemonInput {
	t.Helper()
	scen, err := maritime.BuildScenario(maritime.ScenarioConfig{Vessels: scenarioVessels, Seed: 7, IntervalSec: int64(w.interval)})
	if err != nil {
		t.Fatal(err)
	}
	events := maritime.Preprocess(scen.Messages, scen.Map, maritime.DefaultPreprocessConfig())
	var ed strings.Builder
	ed.WriteString(maritime.GoldSource())
	for _, c := range maritime.BackgroundClauses(scen.Map, scen.Fleet, maritime.ObservedPairs(events)) {
		ed.WriteString(c.String() + "\n")
	}
	for _, f := range maritime.DynamicFacts(events, scen.Fleet) {
		ed.WriteString(f.String() + ".\n")
	}
	in := &daemonInput{w: w, edText: ed.String(), sorted: stream.Stream(events)}
	in.sorted.Sort()
	first, last := in.sorted.TimeRange()
	in.start, in.end = first, last+1

	var raw bytes.Buffer
	if err := in.sorted.WriteNDJSON(&raw); err != nil {
		t.Fatal(err)
	}
	if err := in.batch(raw.Bytes()); err != nil {
		t.Fatal(err)
	}
	in.expectEmissions()

	parsed, err := parser.ParseEventDescription(in.edText)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := rtec.New(parsed, rtec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := eng.Run(in.sorted, rtec.RunOptions{Window: windowSize})
	if err != nil {
		t.Fatal(err)
	}
	var ref bytes.Buffer
	if err := rec.WriteCSV(&ref); err != nil {
		t.Fatal(err)
	}
	in.reference = ref.Bytes()
	return in
}

// TestLadderSmoke takes a small 14-vessel stream up the ladder through the
// serve rung: every rung's recognition equals the batch reference, every
// metric the rungs report is declared, and the trace holds a well-formed
// span for each rung — what cmd/tracecheck -require checks.
func TestLadderSmoke(t *testing.T) {
	w := workload{name: "smoke", interval: 600,
		rungs: []string{"stream.decode", "stream.reorder", "rtec.load", "rtec.eval", "rtec.stream", "rtec.checkpoint", "journal", "shard", "shard.s2", "serve"}}
	in := smokeInput(t, w)
	e := &env{clk: clock.Real(), root: t.TempDir(), out: t.TempDir()}
	rep := newReport(io.Discard, w.name, true, 7)
	l := &ladder{e: e, in: in, rep: rep, tr: telemetry.NewTracerWithClock(e.clk.Now), wall: map[string]time.Duration{}}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	steps := []func() error{l.decode, l.reorder, l.load, l.eval, l.stream, l.checkpoint, l.journal, l.shard, l.shard2,
		func() error { return l.serve(ctx) }}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("rung %s: %v", w.rungs[i], err)
		}
	}
	if rep.failed != 0 || !rep.correct {
		t.Errorf("failed=%d correct=%v of %d checks: a rung's output differs from the batch reference", rep.failed, rep.correct, rep.attempted)
	}
	// stream, checkpoint, journal, shard, serve each compare a CSV.
	if rep.attempted < 5 {
		t.Errorf("attempted=%d, want at least the 5 CSV comparisons", rep.attempted)
	}
	for name, want := range map[string]float64{
		"rtec.eval.windows":      float64(len(in.plan.expectQ) + 1),
		"serve.frames_missing":   0,
		"rtec.stream.late_share": 0, // in order: nothing arrives behind the frontier
		"rtec.stream.revisions":  0,
		"stream.reorder.late":    0,
	} {
		if got, ok := rep.metrics[name]; !ok || got.Value != want {
			t.Errorf("%s = %v (set=%v), want %v", name, got.Value, ok, want)
		}
	}
	if got := rep.metrics["shard.recall_vs_unsharded"].Value; got <= 0 || got > 1 {
		t.Errorf("shard.recall_vs_unsharded = %v, want in (0, 1]", got)
	}
	if got := rep.metrics["stream.decode.bytes_in"].Value; got <= 0 {
		t.Errorf("stream.decode.bytes_in = %v, want > 0", got)
	}

	if err := writeTrace(e, l.tr, w.name, rep); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(e.out, "trace-smoke.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, ev := range tf.TraceEvents {
		if ev.Name == "" || ev.Ph != "X" || ev.TS < 0 || ev.Dur < 0 {
			t.Fatalf("malformed span %+v", ev)
		}
		seen[ev.Name] = true
	}
	for _, rung := range w.rungs {
		if !seen[rung] {
			t.Errorf("trace has no span named %s", rung)
		}
	}

	// Left to itself the run leaves nothing behind under the work dir.
	if left, _ := os.ReadDir(filepath.Join(e.root, "tmp")); len(left) != 0 {
		t.Errorf("%d temp dirs left behind", len(left))
	}
}

func TestReportCompletesTheContract(t *testing.T) {
	rep := newReport(io.Discard, "figures", true, 7)
	rep.set("maritime.events", 4380)
	rep.attempted = 3
	rep.finish()
	if len(rep.metrics) != len(perLayer) {
		t.Fatalf("%d metrics, want every one of the %d per-layer metrics", len(rep.metrics), len(perLayer))
	}
	if m := rep.metrics["shard.ingest_wait_s"]; m.Value != 0 || m.Unit != "s" {
		t.Errorf("a bypassed layer must read 0 with its unit, got %+v", m)
	}
	raw, err := json.Marshal(rep.result())
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("result has no %q key", k)
		}
	}
	if len(keys) != 4 {
		t.Errorf("result has %d keys, the contract fixes exactly 4", len(keys))
	}
}

func TestFigure2cShape(t *testing.T) {
	const ok = "event description,h,aM,tr,tu,p,l,s,d,all\n" +
		"o1■,1.000,1.000,0.731,1.000,1.000,0.802,1.000,1.000,0.993\n" +
		"event description,h,aM,tr,tu,p,l,s,d\n" +
		"o1■,1.000,1.000,1.000,1.000,1.000,1.000,1.000,1.000\n" +
		"Llama-3■,1.000,1.000,1.000,1.000,0.962,0.000,1.000,1.000\n" +
		"GPT-4o▲,1.000,1.000,0.000,1.000,0.000,0.000,1.000,0.000\n" +
		"event description,round,autofixed,remaining,similarity,average,f1,critiqued\n" +
		"o1□,1,7,0,0.993,0.947,1.000,\n"
	if err := checkFigure2cShape([]byte(ok)); err != nil {
		t.Errorf("good output rejected: %v", err)
	}
	bad := strings.Replace(ok, "Llama-3■,1.000,1.000,1.000,1.000,0.962,0.000", "Llama-3■,1.000,1.000,1.000,1.000,0.962,0.400", 1)
	if err := checkFigure2cShape([]byte(bad)); err == nil {
		t.Error("a Llama-3 that recognises loitering must fail the shape check")
	}
	if err := checkFigure2cShape([]byte(strings.Replace(ok, "GPT-4o▲,1.000,1.000,0.000", "GPT-4▲,1.000,1.000,0.000", 1))); err == nil {
		t.Error("a missing shape row must fail the check")
	}
	if err := checkFigure2cShape([]byte("no tables here\n")); err == nil {
		t.Error("output without a Figure 2c table must fail the check")
	}
}
