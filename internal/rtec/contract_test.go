package rtec

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"rtecgen/internal/maritime"
	"rtecgen/internal/stream"
	"rtecgen/internal/telemetry"
	"rtecgen/internal/telemetry/journal"
)

// shellInput is the maritime scenario at 14 vessels, seed 7 and interval 60
// as aisgen writes it: the background knowledge that follows an event
// description, and the input events; arrivals is that stream shuffled as
// disorder shuffles it at max-delay 900, seed 13 and a duplicate every 50.
func shellInput(t *testing.T) (bg string, events, arrivals stream.Stream) {
	t.Helper()
	scen, err := maritime.BuildScenario(maritime.ScenarioConfig{Vessels: 14, Seed: 7, IntervalSec: 60})
	if err != nil {
		t.Fatal(err)
	}
	events = maritime.Preprocess(scen.Messages, scen.Map, maritime.DefaultPreprocessConfig())
	var b strings.Builder
	for _, c := range maritime.BackgroundClauses(scen.Map, scen.Fleet, maritime.ObservedPairs(events)) {
		fmt.Fprintln(&b, c)
	}
	for _, fact := range maritime.DynamicFacts(events, scen.Fleet) {
		fmt.Fprintf(&b, "%s.\n", fact)
	}
	sorted := slices.Clone(events)
	sorted.Sort()
	arrivals, _, _ = stream.Perturb(sorted, rand.New(rand.NewSource(13)), 900, 50)
	return b.String(), events, arrivals
}

// contractRun is what one run leaves behind: the CSV, the audit journal and
// the last two checkpoint generations (streamed runs only), the counters,
// and the logger's WARN lines in order.
type contractRun struct {
	out      [4]string
	counters map[string]int64
	warns    []string
}

// contractOut runs src over events: when sopts is nil in batch at window
// 3600 and slide 900, as `rtec -window 3600 -slide 900` does, and otherwise
// streamed with a journal and a checkpoint every window, as an rtecd shard
// with `-journal -checkpoint` does.
func contractOut(t *testing.T, src string, opts Options, sopts *StreamOptions, events stream.Stream) contractRun {
	t.Helper()
	var logBuf, jbuf bytes.Buffer
	reg := telemetry.NewRegistry()
	opts.Telemetry = telemetry.New(reg, nil, telemetry.NewTestLogger(&logBuf, nil))
	e := mustEngine(t, src, opts)
	var run contractRun
	if sopts == nil {
		rec, err := e.Run(events, RunOptions{Window: 3600, Slide: 900})
		if err != nil {
			t.Fatal(err)
		}
		run.out[0] = csvOf(t, rec)
	} else {
		so := *sopts
		so.Journal = journal.NewWriter(&jbuf, journal.Options{})
		so.CheckpointPath = filepath.Join(t.TempDir(), "run.ckpt")
		res, err := e.RunStream(events, so, nil)
		if err != nil {
			t.Fatal(err)
		}
		run.out = [4]string{csvOf(t, res.Recognition), jbuf.String(), readFile(t, so.CheckpointPath), readFile(t, so.CheckpointPath+checkpointPrevSuffix)}
	}
	run.counters = reg.Snapshot().Counters
	for _, line := range strings.Split(logBuf.String(), "\n") {
		if strings.HasPrefix(line, "level=WARN ") {
			run.warns = append(run.warns, line)
		}
	}
	return run
}

// readFile returns the contents of the file at path.
func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// sameOutput requires got to have want's CSV, journal and checkpoint bytes.
func sameOutput(t *testing.T, what string, got, want contractRun) {
	t.Helper()
	for i, name := range []string{"CSV", "journal", "checkpoint", "previous checkpoint"} {
		if got.out[i] != want.out[i] {
			t.Errorf("%s: the %s differs", what, name)
		}
	}
}

// TestContractDeltaEqualsFull: over the shuffled maritime stream, the delta
// layer's CSV, audit journal and checkpoints are those of its DisableDelta
// twin, on tumbling windows, where every use of it is a revision, and at
// slide 900, where every window reuses its predecessor's state; and it is
// used. At slide 900 a worker pool and a kill-and-resume change nothing.
func TestContractDeltaEqualsFull(t *testing.T) {
	bg, _, arrivals := shellInput(t)
	gold := maritime.GoldSource() + bg
	for _, c := range []struct {
		name  string
		slide int64
		check func(t *testing.T, sopts StreamOptions, delta contractRun)
	}{
		{"tumbling", 0, func(t *testing.T, _ StreamOptions, delta contractRun) {
			// A revision replays the window's carried state outside its marked
			// time-points and evaluates only the fluents they reached. A
			// tumbling emission re-derives its whole window, so every reused
			// anchor event is a revision's: none means revisions run cold.
			if n := delta.counters; n["rtec.delta.reused"] == 0 || n["rtec.delta.installed"] == 0 {
				t.Errorf("revisions re-derive whole windows or evaluate every fluent: %v", n)
			}
		}},
		{"slide 900", 900, func(t *testing.T, sopts StreamOptions, delta contractRun) {
			if delta.counters["rtec.delta.reused"] == 0 {
				t.Error("rtec.delta.reused is 0: sliding windows reuse nothing")
			}
			sameOutput(t, "Workers 8", contractOut(t, gold, Options{Workers: 8}, &sopts, arrivals), delta)
			// Killed mid-slide, a resumed run restarts every slot cold and
			// re-encodes its frozen windows from the restored slots.
			sopts.CheckpointPath = filepath.Join(t.TempDir(), "crash.ckpt")
			if _, err := mustEngine(t, gold, Options{Workers: 1}).RunStream(arrivals, sopts, crashAfter(3)); !errors.Is(err, errCrash) {
				t.Fatalf("interrupted run err = %v, want the crash", err)
			}
			res, err := resumeStream(mustEngine(t, gold, Options{Workers: 1}), sopts.CheckpointPath, arrivals, sopts, nil)
			if err != nil {
				t.Fatal(err)
			}
			// It keeps no journal: the CSV and checkpoints are compared.
			resumed := contractRun{out: [4]string{csvOf(t, res.Recognition), delta.out[1],
				readFile(t, sopts.CheckpointPath), readFile(t, sopts.CheckpointPath+checkpointPrevSuffix)}}
			sameOutput(t, "resumed", resumed, delta)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			sopts := StreamOptions{RunOptions: RunOptions{Window: 3600, Slide: c.slide}, MaxDelay: 900}
			delta := contractOut(t, gold, Options{Workers: 1}, &sopts, arrivals)
			sameOutput(t, "DisableDelta", contractOut(t, gold, Options{Workers: 1, DisableDelta: true}, &sopts, arrivals), delta)
			c.check(t, sopts, delta)
		})
	}
}

// TestContractStreamedJournal: over the shuffled maritime stream at window
// 3600 and max-delay 900, the journalled streamed run recognises what the
// batch run over the in-order stream does, counts the duplicates, and
// journals the run plan, the windows and the final statistics, with an
// emit lag on some window; two runs journal byte-identically.
func TestContractStreamedJournal(t *testing.T) {
	bg, events, arrivals := shellInput(t)
	gold := maritime.GoldSource() + bg
	rec, err := mustEngine(t, gold, Options{Workers: 1}).Run(events, RunOptions{Window: 3600})
	if err != nil {
		t.Fatal(err)
	}
	batch := csvOf(t, rec)
	sopts := StreamOptions{RunOptions: RunOptions{Window: 3600}, MaxDelay: 900}
	var journals [2]string
	for i := range journals {
		run := contractOut(t, gold, Options{Workers: 1}, &sopts, arrivals)
		if run.out[0] != batch {
			t.Fatal("the shuffled streamed run diverged from the in-order batch run")
		}
		if run.counters["rtec.duplicate_events"] == 0 {
			t.Error("rtec.duplicate_events_total is 0 on a stream with a duplicate every 50 events")
		}
		stats, err := journal.Validate(strings.NewReader(run.out[1]))
		if err != nil {
			t.Fatal(err)
		}
		if stats.Types["run_start"] != 1 || stats.Types["window"] == 0 || stats.Types["run_end"] != 1 {
			t.Errorf("the journal lacks the run plan, a window or the final statistics: %v", stats.Types)
		}
		journals[i] = run.out[1]
	}
	if journals[0] != journals[1] {
		t.Error("same-seed journals differ")
	}
	if !regexp.MustCompile(`"type":"window".*"emit_lag":[1-9]`).MatchString(journals[0]) {
		t.Error("no window record has emit_lag > 0 on a disordered stream")
	}
}

// TestContractDefectiveDefinition runs the paper's "missing condition" error
// (examples/lint/doomed_threshold.prolog), whose comparison warns at every
// velocity report, in batch, streaming and DisableDelta streaming at slide
// 900: the three recognise the same intervals, the two streaming runs log
// the same WARN lines (every revision logs again), and the batch run logs
// the same set once, the doomed comparison's among it.
func TestContractDefectiveDefinition(t *testing.T) {
	bg, events, arrivals := shellInput(t)
	src := readFile(t, filepath.Join("..", "..", "examples", "lint", "doomed_threshold.prolog")) + bg
	sopts := StreamOptions{RunOptions: RunOptions{Window: 3600, Slide: 900}, MaxDelay: 900}
	batch := contractOut(t, src, Options{Workers: 1}, nil, events)
	delta := contractOut(t, src, Options{Workers: 1}, &sopts, arrivals)
	full := contractOut(t, src, Options{Workers: 1, DisableDelta: true}, &sopts, arrivals)
	if delta.out[0] != batch.out[0] {
		t.Error("the streaming run's recognition diverged from the batch run's")
	}
	sameOutput(t, "DisableDelta", full, delta)
	for _, run := range []contractRun{batch, delta, full} {
		slices.Sort(run.warns)
	}
	if !slices.Equal(delta.warns, full.warns) {
		t.Errorf("incremental and from-scratch streaming log different warnings: %d vs %d lines", len(delta.warns), len(full.warns))
	}
	if set := slices.Compact(delta.warns); !slices.Equal(set, batch.warns) {
		t.Errorf("streaming warns about other (message, fluent, window) triples than batch: %d vs %d", len(set), len(batch.warns))
	}
	doomed := `msg="condition Speed_r =< MovingMin_r: kb: =<: kb: MovingMin_r is not an arithmetic expression"`
	if !slices.ContainsFunc(batch.warns, func(l string) bool {
		return strings.Contains(l, doomed) && strings.Contains(l, " fluent=movingSpeed/1 window_start=")
	}) {
		t.Errorf("the batch run did not warn about the doomed comparison:\n%s", strings.Join(batch.warns, "\n"))
	}
}
