package rtec

import (
	"fmt"
	"strings"
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

// TestDoomedComparisonAllocCeiling: a rule that lost the condition binding a
// comparison's operand warns at every anchor event, and the window keeps the
// first warning. What the other occurrences cost is a count, so it repeats
// across hosts: one window of 3 000 velocity reports against one of 1 000,
// per extra report. Measured 1.0 — the error value kb.SolveBuiltin returns;
// the evaluator that rendered "condition …: kb: …" for every occurrence and
// keyed the window's duplicate check by a concatenated string read 11.
func TestDoomedComparisonAllocCeiling(t *testing.T) {
	e := mustEngine(t, `
inputEvent(velocity(_, _)).
terminatedAt(moving(V)=true, T) :-
    happensAt(velocity(V, Speed), T),
    Speed =< MovingMin.
`, Options{Workers: 1})
	perRun := func(n int) float64 {
		events := make(stream.Stream, n)
		for i := range events {
			events[i] = ev(int64(i+1), fmt.Sprintf("velocity(v%d, %d.5)", i%10, i%20))
		}
		p, err := prepare(events, RunOptions{}) // no fluent table: every run evaluates
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			rec, err := e.RunPrepared(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.Warnings) != 1 || !strings.HasSuffix(rec.Warnings[0].Msg, "MovingMin_r is not an arithmetic expression") {
				t.Fatalf("warnings %v, want the one doomed comparison", rec.Warnings)
			}
		})
	}
	small, large := perRun(1000), perRun(3000)
	perEvent := (large - small) / 2000
	t.Logf("%.0f allocs at 1 000 events, %.0f at 3 000: %.2f per extra anchor event", small, large, perEvent)
	// One per event, and a handful per window that grow with it (the race
	// detector's runtime adds two over the 2 000 events).
	if perEvent > 1.1 {
		t.Fatalf("a doomed comparison costs %.2f allocations per anchor event, ceiling 1", perEvent)
	}
}
