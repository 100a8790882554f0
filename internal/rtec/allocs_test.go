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
// description. It is a count, so it repeats across hosts; it
// sits about 15 % above the figure measured when it was committed (1 536;
// see EXPERIMENTS.md "Reference figures"), so rule evaluation that starts
// copying bindings, boxing builtin results or re-deriving per-rule analyses
// per window again, evalSimple working memory that is no longer reused
// across the window's fluents, a lone window that captures delta state
// nobody replays, or a Term.String that allocates more than its result,
// fails here long before it shows in a wall-clock benchmark.
const windowAllocCeiling = 1770

// goldScenario loads the gold event description of the 14-vessel seed-7
// scenario, the input of every allocation-count gate, and returns the engine
// with the scenario's events in time order.
func goldScenario(t *testing.T) (*Engine, stream.Stream) {
	t.Helper()
	scen, err := maritime.BuildScenario(maritime.ScenarioConfig{Vessels: 14, Seed: 7, IntervalSec: 60})
	if err != nil {
		t.Fatal(err)
	}
	events := maritime.Preprocess(scen.Messages, scen.Map, maritime.DefaultPreprocessConfig())
	events.Sort()
	ed := maritime.FullED(maritime.GoldED(), scen.Map, scen.Fleet, maritime.ObservedPairs(events))
	e, err := New(ed, Options{Strict: true, ExtraFacts: maritime.DynamicFacts(events, scen.Fleet)})
	if err != nil {
		t.Fatal(err)
	}
	return e, events
}

func TestWindowAllocCeiling(t *testing.T) {
	e, events := goldScenario(t)
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

// perExtraAnchor returns what each anchor event of a one-rule definition
// costs on top of its window: the allocations of one window of 3 000 velocity
// reports less those of one of 1 000, per extra report. velocity(n) renders
// the n-th report; check sees every run's recognition. It is a count, so it
// repeats across hosts.
func perExtraAnchor(t *testing.T, src string, velocity func(n int) string, check func(*Recognition)) float64 {
	t.Helper()
	e := mustEngine(t, src, Options{})
	perRun := func(n int) float64 {
		events := make(stream.Stream, n)
		for i := range events {
			events[i] = ev(int64(i+1), velocity(i))
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
			check(rec)
		})
	}
	small, large := perRun(1000), perRun(3000)
	perEvent := (large - small) / 2000
	t.Logf("%.0f allocs at 1 000 events, %.0f at 3 000: %.3f per extra anchor event", small, large, perEvent)
	return perEvent
}

// TestDoomedComparisonAllocCeiling: a rule that lost the condition binding a
// comparison's operand warns at every anchor event, and the window keeps the
// first warning. Measured 0.00 per extra anchor event: the fault is a value
// until the warning is first rendered. An evaluator that builds the
// *kb.ArithError at every occurrence read 1.00, one that rendered
// "condition …: kb: …" for every occurrence and keyed the window's duplicate
// check by a concatenated string 11. The race detector's runtime adds two
// over the 2 000 events.
func TestDoomedComparisonAllocCeiling(t *testing.T) {
	perEvent := perExtraAnchor(t, `
inputEvent(velocity(_, _)).
terminatedAt(moving(V)=true, T) :-
    happensAt(velocity(V, Speed), T),
    Speed =< MovingMin.
`, func(i int) string { return fmt.Sprintf("velocity(v%d, %d.5)", i%10, i%20) },
		func(rec *Recognition) {
			if len(rec.Warnings) != 1 || !strings.HasSuffix(rec.Warnings[0].Msg, "MovingMin_r is not an arithmetic expression") {
				t.Fatalf("warnings %v, want the one doomed comparison", rec.Warnings)
			}
		})
	if perEvent > 0.05 {
		t.Fatalf("a doomed comparison costs %.2f allocations per anchor event, ceiling 0.05", perEvent)
	}
}

// TestBuiltinResultAllocCeiling: the drifting rules bind absAngleDiff's
// result and compare it with a threshold at every velocity report. A result
// that only feeds comparisons lives in the unit's scratch memory, so an
// anchor whose comparison fails derives nothing and allocates nothing.
// Measured 0.000 per extra anchor event; a heap Float per result reads 1.00.
func TestBuiltinResultAllocCeiling(t *testing.T) {
	perEvent := perExtraAnchor(t, `
inputEvent(velocity(_, _, _, _)).
thresholds(driftingAngle, 30).
initiatedAt(drifting(Vl)=true, T) :-
    happensAt(velocity(Vl, Speed, CoG, TrueHeading), T),
    thresholds(driftingAngle, MinAngle),
    absAngleDiff(CoG, TrueHeading, Diff),
    Diff > MinAngle.
`, func(i int) string { return fmt.Sprintf("velocity(v%d, 5.0, %d.5, %d)", i%10, 350+i%20, i%10) },
		func(rec *Recognition) {
			if len(rec.Keys()) != 0 || len(rec.Warnings) != 0 {
				t.Fatalf("recognised %v, warnings %v: every angle difference is under 30", rec.Keys(), rec.Warnings)
			}
		})
	if perEvent > 0.005 {
		t.Fatalf("a failed comparison of absAngleDiff's result costs %.3f allocations per anchor event, want 0", perEvent)
	}
}
