package rtec

import (
	"testing"

	"rtecgen/internal/maritime"
	"rtecgen/internal/stream"
)

// windowAllocCeiling bounds the heap allocations of one evaluation of the
// first 3600 s window of the 14-vessel seed-7 scenario under the gold event
// description at Workers:1. It is a count, so it repeats across hosts; it
// sits about 15 % above the figure measured when it was committed (4 528;
// see EXPERIMENTS.md "Job-level fan-out"), so rule evaluation that starts
// copying bindings or re-deriving per-rule analyses per window again, a
// lone window that captures delta state nobody replays, or a Term.String
// that allocates more than its result, fails here long before it shows in
// a wall-clock benchmark.
const windowAllocCeiling = 5200

// goldScenario loads the gold event description of the 14-vessel seed-7
// scenario, the input of every allocation-count gate, and returns the engine
// with the scenario's events in time order.
func goldScenario(t *testing.T, workers int) (*Engine, stream.Stream) {
	t.Helper()
	scen, err := maritime.BuildScenario(maritime.ScenarioConfig{Vessels: 14, Seed: 7, IntervalSec: 60})
	if err != nil {
		t.Fatal(err)
	}
	events := maritime.Preprocess(scen.Messages, scen.Map, maritime.DefaultPreprocessConfig())
	events.Sort()
	ed := maritime.FullED(maritime.GoldED(), scen.Map, scen.Fleet, maritime.ObservedPairs(events))
	e, err := New(ed, Options{Strict: true, ExtraFacts: maritime.DynamicFacts(events, scen.Fleet), Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return e, events
}

func TestWindowAllocCeiling(t *testing.T) {
	e, events := goldScenario(t, 1)
	first, _ := events.TimeRange()
	window := events.Window(first, first+3600)
	var recognised int
	allocs := testing.AllocsPerRun(5, func() {
		rec, err := e.Run(window, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		recognised = len(rec.Keys())
	})
	if recognised == 0 {
		t.Fatal("the window recognised nothing: the ceiling would bound an empty evaluation")
	}
	t.Logf("%d events, %d FVPs recognised, %.0f allocs per window (%.1f per event), ceiling %d",
		len(window), recognised, allocs, allocs/float64(len(window)), windowAllocCeiling)
	if allocs > windowAllocCeiling {
		t.Fatalf("one window allocates %.0f objects, ceiling %d", allocs, windowAllocCeiling)
	}
}
