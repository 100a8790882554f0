package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"rtecgen/internal/eval"
	"rtecgen/internal/llm"
	"rtecgen/internal/maritime"
	"rtecgen/internal/prompt"
	"rtecgen/internal/telemetry"
)

// figuresArgs is the paper's own job on the scripted-core scenario.
func figuresArgs(seed int64, workers int) []string {
	return []string{"-fig", "all", "-csv", "-vessels", strconv.Itoa(scenarioVessels),
		"-seed", strconv.FormatInt(seed, 10), "-workers", strconv.Itoa(workers)}
}

// figure2cShape is the qualitative result of the paper's Figure 2c that
// must survive any change: after minimal corrections o1 recognises
// loitering perfectly, GPT-4o and Llama-3 not at all.
var figure2cShape = map[string]string{"o1■": "1.000", "GPT-4o▲": "0.000", "Llama-3■": "0.000"}

// checkFigure2cShape finds the Figure 2c table in `experiments -csv` output
// (the one table whose header has the activity columns and no "all") and
// checks the loitering column.
func checkFigure2cShape(csv []byte) error {
	const header = "event description,h,aM,tr,tu,p,l,s,d"
	_, table, ok := strings.Cut(string(csv), header+"\n")
	if !ok {
		return fmt.Errorf("figures: no Figure 2c table in the output")
	}
	seen := 0
	for _, line := range strings.Split(table, "\n") {
		cells := strings.Split(line, ",")
		want, ok := figure2cShape[cells[0]]
		if !ok {
			continue
		}
		if len(cells) != 9 {
			break // ran into the next table
		}
		if cells[6] != want {
			return fmt.Errorf("figures: Figure 2c loitering F1 of %s is %s, want %s", cells[0], cells[6], want)
		}
		seen++
	}
	if seen != len(figure2cShape) {
		return fmt.Errorf("figures: Figure 2c has %d of the %d shape rows", seen, len(figure2cShape))
	}
	return nil
}

// setupReps is how many times the figures reference is computed: set-up time
// is the median, and the repetitions must agree byte for byte.
const setupReps = 3

// runFigures is the untraced measurement of the figures workload. Set-up is
// the reference: a sequential (-workers 1) run, which the parallel runs
// under test must reproduce byte for byte. Every `experiments` process is
// timed between two host-speed probes and its time divided by the slowdown
// they read (hostspeed.go); the raw seconds are printed beside it.
func runFigures(ctx context.Context, e *env, seed int64, budget time.Duration, rep *report) error {
	host := newHostSpeed(e.clk)
	timed := func(workers int) (out []byte, u usage, raw, slowdown float64, err error) {
		ctx, cancel := context.WithTimeout(ctx, passTimeout)
		defer cancel()
		slowdown, err = host.during(func() (err error) {
			t0 := e.clk.Now()
			out, u, err = runTool(ctx, e.bin("experiments"), figuresArgs(seed, workers)...)
			raw = e.clk.Now().Sub(t0).Seconds()
			return err
		})
		return out, u, raw, slowdown, err
	}

	var reference []byte
	var setup, setupRaw []float64
	for i := 0; i < setupReps; i++ {
		out, _, raw, slowdown, err := timed(1)
		if err != nil {
			return err
		}
		if i > 0 && !bytes.Equal(out, reference) {
			return fmt.Errorf("figures: two -workers 1 runs of seed %d differ: no reference", seed)
		}
		reference = out
		setup, setupRaw = append(setup, raw/slowdown), append(setupRaw, raw)
	}
	if err := checkFigure2cShape(reference); err != nil {
		return err
	}

	var wall, wallRaw, slow, cpu, rss []float64
	err := passes(e, budget, func() error {
		out, u, raw, slowdown, err := timed(0)
		if err != nil {
			return err
		}
		wall, wallRaw, slow = append(wall, raw/slowdown), append(wallRaw, raw), append(slow, slowdown)
		cpu = append(cpu, u.cpu.Seconds())
		rss = append(rss, u.rssMB)
		rep.attempted++
		if !bytes.Equal(out, reference) {
			rep.failed++
			rep.correct = false
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.note("vessels=%d passes=%d output_bytes=%d", scenarioVessels, len(wall), len(reference))
	rep.note("wall_s per pass %.3f", wall)
	rep.note("raw seconds     %.3f", wallRaw)
	rep.note("host slowdown   %.3f", slow)
	rep.set("setup_s", median(setup))
	rep.set("wall_s", median(wall))
	rep.set("peak_rss_mb", median(rss))
	rep.info("bench_rss_mb", liveRSSMB(os.Getpid()), "MB", "the benchmark's own peak: the floor under a child's ru_maxrss")
	rep.info("setup_raw_s", median(setupRaw), "s", "as the clock read it")
	rep.info("wall_raw_s", median(wallRaw), "s", "as the clock read it")
	rep.info("host.slowdown", median(slow), "ratio", "probe time around each pass ÷ nominal")
	rep.info("cpu_s", median(cpu), "s", "unbounded: too noisy on this host to gate")
	rep.info("fail_pct", 100*ratio(float64(rep.failed), float64(rep.attempted)), "%", "")
	return nil
}

// traceFigures attributes the figures workload by calling its stages
// directly, in pipeline order, one span each. parser.parse and
// analysis.lint re-run work prompt.generate already contains, to price
// those two layers on their own.
func traceFigures(e *env, seed int64, rep *report) error {
	tr := telemetry.NewTracerWithClock(e.clk.Now)
	root := tr.Span("figures")
	stage := func(name string, fn func() error) error {
		sp := root.Span(name)
		t0 := e.clk.Now()
		err := fn()
		sp.End()
		rep.set(name+"_ms", ms(e.clk.Now().Sub(t0)))
		return err
	}

	models := make([]prompt.Model, 0, len(llm.AllModels()))
	for _, m := range llm.AllModels() {
		models = append(models, m)
	}
	gold, domain := maritime.GoldED(), maritime.PromptDomain()

	var events int
	if err := stage("maritime.scenario", func() error {
		scen, err := maritime.BuildScenario(maritime.ScenarioConfig{Vessels: scenarioVessels, Seed: seed})
		if err != nil {
			return err
		}
		events = len(maritime.Preprocess(scen.Messages, scen.Map, maritime.DefaultPreprocessConfig()))
		return nil
	}); err != nil {
		return err
	}
	rep.set("maritime.events", float64(events))

	var gens []*prompt.GeneratedED
	if err := stage("prompt.generate", func() (err error) {
		gens, err = eval.GenerateAll(models)
		return err
	}); err != nil {
		return err
	}
	stage("parser.parse", func() error { //nolint:errcheck // the closure cannot fail
		for _, g := range gens {
			for _, res := range g.Results {
				prompt.ParseResponse(res.Raw)
			}
		}
		return nil
	})
	stage("analysis.lint", func() error { //nolint:errcheck // the closure cannot fail
		for _, g := range gens {
			g.Lint(domain)
		}
		return nil
	})

	var best []eval.Row
	if err := stage("similarity.score", func() error {
		rows := make([]eval.Row, 0, len(gens))
		for _, g := range gens {
			row, err := eval.Score(gold, g)
			if err != nil {
				return err
			}
			rows = append(rows, row)
		}
		best = eval.BestPerModel(rows)
		return nil
	}); err != nil {
		return err
	}

	var corrected []eval.CorrectedRow
	if err := stage("correct.fix", func() (err error) {
		corrected, err = eval.Figure2b(eval.TopN(best, 3))
		return err
	}); err != nil {
		return err
	}

	var tb *eval.Testbed
	var accuracy []eval.AccuracyRow
	if err := stage("eval.accuracy", func() (err error) {
		tb, err = eval.NewTestbed(eval.AccuracyConfig{
			Scenario:   maritime.ScenarioConfig{Vessels: scenarioVessels, Seed: seed},
			Preprocess: maritime.DefaultPreprocessConfig(),
			Window:     windowSize,
		})
		if err != nil {
			return err
		}
		accuracy, err = eval.Figure2c(tb, corrected)
		return err
	}); err != nil {
		return err
	}
	if err := stage("eval.refine", func() error {
		_, err := eval.FigureRefine(nil, models, best, eval.DefaultRefineBudget, tb)
		return err
	}); err != nil {
		return err
	}
	root.End()

	// The same shape check as the untraced run, on the rows themselves.
	for _, row := range accuracy {
		if want, ok := figure2cShape[row.Label]; ok {
			rep.attempted++
			if got := fmt.Sprintf("%.3f", row.PerActivity["l"].Score()); got != want {
				rep.failed++
				rep.correct = false
				rep.note("Figure 2c loitering F1 of %s is %s, want %s", row.Label, got, want)
			}
		}
	}
	if rep.attempted != len(figure2cShape) {
		return fmt.Errorf("figures: Figure 2c has %d of the %d shape rows", rep.attempted, len(figure2cShape))
	}
	return writeTrace(e, tr, "figures", rep)
}
