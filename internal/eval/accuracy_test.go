package eval

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"rtecgen/internal/intervals"
	"rtecgen/internal/maritime"
	"rtecgen/internal/parser"
	"rtecgen/internal/prompt"
	"rtecgen/internal/rtec"
	"rtecgen/internal/stream"
	"rtecgen/internal/telemetry"
)

// genWith wraps custom rules for one composite activity, with every other
// curriculum activity taken verbatim from the gold standard.
func genWith(t *testing.T, key, src string) *prompt.GeneratedED {
	t.Helper()
	gold := maritime.GoldED()
	gen := &prompt.GeneratedED{ModelName: "custom"}
	for _, act := range maritime.Curriculum {
		r := prompt.ActivityResult{Request: prompt.ActivityRequest{Key: act.Key, Name: act.Name}}
		if act.Key == key {
			ed, err := parser.ParseEventDescription(src)
			if err != nil {
				t.Fatal(err)
			}
			r.Clauses = ed.Clauses
		} else {
			r.Clauses = maritime.RulesForActivity(gold, act)
		}
		gen.Results = append(gen.Results, r)
	}
	return gen
}

// TestArityMismatchScoresZero: a generated activity whose primary fluent
// has a different arity than the gold one cannot match any detection.
func TestArityMismatchScoresZero(t *testing.T) {
	tb := testbed(t)
	gen := genWith(t, "d", `
initiatedAt(drifting(Vl, severe)=true, T) :-
    happensAt(velocity(Vl, Speed, CoG, TrueHeading), T),
    thresholds(driftingAngle, MinAngle),
    absAngleDiff(CoG, TrueHeading, Diff),
    Diff > MinAngle.

terminatedAt(drifting(Vl, severe)=true, T) :-
    happensAt(velocity(Vl, Speed, CoG, TrueHeading), T),
    thresholds(driftingAngle, MinAngle),
    absAngleDiff(CoG, TrueHeading, Diff),
    Diff =< MinAngle.
`)
	row, err := tb.Evaluate(gen)
	if err != nil {
		t.Fatal(err)
	}
	if got := row.PerActivity["d"].Score(); got != 0 {
		t.Fatalf("arity-mismatched drifting f1 = %v, want 0", got)
	}
	// Other activities are untouched gold rules: still perfect.
	if got := row.PerActivity["h"].Score(); got != 1 {
		t.Fatalf("h f1 = %v, want 1", got)
	}
}

// TestRenamedFluentStillScores: the f1 matching is name-independent (entity
// signature based), so an activity formalised under a different fluent name
// still scores if its semantics match.
func TestRenamedFluentStillScores(t *testing.T) {
	tb := testbed(t)
	gen := genWith(t, "aM", `
holdsFor(atAnchorOrBerth(Vl)=true, I) :-
    holdsFor(stopped(Vl)=farFromPorts, Isf),
    holdsFor(withinArea(Vl, anchorage)=true, Ia),
    intersect_all([Isf, Ia], Isfa),
    holdsFor(stopped(Vl)=nearPorts, Isn),
    union_all([Isfa, Isn], I).
`)
	row, err := tb.Evaluate(gen)
	if err != nil {
		t.Fatal(err)
	}
	if got := row.PerActivity["aM"].Score(); got != 1 {
		t.Fatalf("renamed anchoredOrMoored f1 = %v, want 1", got)
	}
}

// TestMissingActivityScoresZero: an activity with no generated rules has no
// detections, so recall is zero.
func TestMissingActivityScoresZero(t *testing.T) {
	tb := testbed(t)
	gen := genWith(t, "l", "% the model produced no usable rules for loitering\nvessel(placeholder).")
	row, err := tb.Evaluate(gen)
	if err != nil {
		t.Fatal(err)
	}
	if got := row.PerActivity["l"].Score(); got != 0 {
		t.Fatalf("missing loitering f1 = %v, want 0", got)
	}
	f := row.PerActivity["l"]
	if f.FN == 0 {
		t.Fatal("missing activity must have false negatives")
	}
	if f.TP != 0 || f.FP != 0 {
		t.Fatalf("missing activity TP/FP = %d/%d, want 0/0", f.TP, f.FP)
	}
}

// TestScoreActivityHandComputed scores a small candidate recognition against
// a small gold one, time-point by time-point as worked out by hand. On the
// time-line [0, 100), an FVP initiated at T and terminated at T' holds at
// T+1..T'. Gold f(X) starts on a(X) and stops on b(X); the candidate's g(X)
// (another name: entities align by signature) starts on a(X) or d(X) and
// stops on c(X). Both define a pair fluent that starts on e(X, Y).
func TestScoreActivityHandComputed(t *testing.T) {
	recognise := func(src string, events stream.Stream) *rtec.Recognition {
		t.Helper()
		ed, err := parser.ParseEventDescription(src)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := rtec.New(ed, rtec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := eng.Run(events, rtec.RunOptions{Start: 0, End: 100})
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	var events stream.Stream
	for _, e := range []struct {
		at   int64
		atom string
	}{{10, "a(v1)"}, {20, "b(v1)"}, {25, "c(v1)"}, {30, "a(v2)"}, {40, "c(v2)"}, {50, "d(v3)"}, {60, "c(v3)"}, {70, "e(v1, v2)"}} {
		atom, err := parser.ParseTerm(e.atom)
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, stream.Event{Time: e.at, Atom: atom})
	}
	gold := recognise(`
initiatedAt(f(X)=true, T) :- happensAt(a(X), T).
terminatedAt(f(X)=true, T) :- happensAt(b(X), T).
initiatedAt(near(X, Y)=true, T) :- happensAt(e(X, Y), T).
`, events)
	gen := recognise(`
initiatedAt(g(X)=true, T) :- happensAt(a(X), T).
initiatedAt(g(X)=true, T) :- happensAt(d(X), T).
terminatedAt(g(X)=true, T) :- happensAt(c(X), T).
initiatedAt(close(X, Y)=true, T) :- happensAt(e(X, Y), T).
`, events)
	goldBy := entityIntervals(gold, map[string]bool{"f": true, "near": true})
	genBy := entityIntervals(gen, map[string]bool{"g": true, "close": true, "f": true})
	if _, ok := genBy["f"]; ok {
		t.Error("the candidate recognises no f, yet f has intervals")
	}
	wantSigs := map[string][]string{"f": {"v1=true", "v2=true"}, "near": {"v1|v2=true"}}
	for functor, sigs := range wantSigs {
		var got []string
		for sig := range goldBy[functor] {
			got = append(got, sig)
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, sigs) {
			t.Errorf("gold %s signatures %v, want %v", functor, got, sigs)
		}
	}
	if got, want := goldBy["f"]["v2=true"], (intervals.List{{Start: 31, End: 100}}); !reflect.DeepEqual(got, want) {
		t.Errorf("gold f(v2) holds on %v, want %v (31..99, open at the end)", got, want)
	}

	// v1: gold 11..20, candidate 11..25 — TP 10, FP 5.
	// v2: gold 31..99, candidate 31..40 — TP 10, FN 59.
	// v3: candidate only, 51..60 — FP 10.
	if got, want := scoreActivity(goldBy["f"], genBy["g"], gold.Start, gold.End), (F1{TP: 20, FP: 15, FN: 59}); got != want {
		t.Errorf("f against g: %+v, want %+v", got, want)
	}
	// The pair: both hold on 71..99.
	if got, want := scoreActivity(goldBy["near"], genBy["close"], gold.Start, gold.End), (F1{TP: 29}); got != want {
		t.Errorf("near against close: %+v, want %+v", got, want)
	}
	// Nothing recognised: every gold point is a false negative.
	if got, want := scoreActivity(goldBy["f"], nil, gold.Start, gold.End), (F1{FN: 10 + 69}); got != want {
		t.Errorf("f against nothing: %+v, want %+v", got, want)
	}
}

// TestScale runs the default-size experiment end to end (guarded by
// -short); it matches the configuration recorded in EXPERIMENTS.md.
func TestScale(t *testing.T) {
	if testing.Short() {
		t.Skip("large scenario")
	}
	cfg := DefaultAccuracyConfig()
	tb, err := NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Events()) < 20000 {
		t.Fatalf("default scenario too small: %d events", len(tb.Events()))
	}
	// Gold recognises every composite activity at scale.
	for _, act := range maritime.CompositeActivities() {
		if len(tb.GoldRecognition().FluentIntervals(act.Primary(), nil)) == 0 {
			t.Errorf("no detections for %s at scale", act.Name)
		}
	}
}

// TestTestbedSharedEqualsFresh: every recognition of the testbed goes
// through its one rtec.Prepared, so later event descriptions install the
// fluents earlier ones (the gold standard first) evaluated. Whatever the
// pipeline ran before — Figure 2c and the six refine chains, eight jobs at a
// time — each event description it evaluates must come out of the warm
// testbed exactly as out of a Run of its own: CSV bytes, warnings in order,
// keys. And the table must have been used.
func TestTestbedSharedEqualsFresh(t *testing.T) {
	best, _, cor := figures(t)
	cfg := DefaultAccuracyConfig()
	cfg.Scenario = maritime.ScenarioConfig{Vessels: 14, Seed: 7, IntervalSec: 60}
	cfg.Workers = 8
	reg := telemetry.NewRegistry()
	cfg.Telemetry = telemetry.New(reg, nil, nil)
	tb, err := NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Figure2c(tb, cor); err != nil {
		t.Fatal(err)
	}
	refined, err := FigureRefine(nil, allModels(), best, DefaultRefineBudget, tb)
	if err != nil {
		t.Fatal(err)
	}
	candidates := map[string]*prompt.GeneratedED{}
	for _, r := range cor {
		candidates[r.Label()] = r.Corrected.Gen
	}
	for _, r := range refined {
		candidates[r.Label()+" refined"] = r.Final
	}
	render := func(rec *rtec.Recognition) string {
		var b bytes.Buffer
		if err := rec.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%s%v\n%v", b.String(), rec.Warnings, rec.Keys())
	}
	for label, gen := range candidates {
		shared, err := tb.run(gen.ED(), false)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := tb.engine(gen.ED(), false)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := eng.Run(tb.events, rtec.RunOptions{Window: cfg.Window})
		if err != nil {
			t.Fatal(err)
		}
		if render(shared) != render(fresh) {
			t.Errorf("%s: the testbed's recognition differs from a fresh Run", label)
		}
	}
	snap := reg.Snapshot()
	hits, misses := snap.Counters["rtec.shared.hits"], snap.Counters["rtec.shared.misses"]
	t.Logf("%d hits, %d misses", hits, misses)
	if hits <= misses || misses == 0 {
		t.Errorf("%d hits, %d misses: the pipeline's event descriptions are near-copies and must mostly hit", hits, misses)
	}
}
