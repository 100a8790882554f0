package rtec

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"rtecgen/internal/fleet"
	"rtecgen/internal/intervals"
	"rtecgen/internal/kb"
	"rtecgen/internal/lang"
	"rtecgen/internal/llm"
	"rtecgen/internal/maritime"
	"rtecgen/internal/parser"
	"rtecgen/internal/prompt"
	"rtecgen/internal/stream"
)

// warningsCase is one event description whose load and runtime warnings
// testdata/warnings.golden pins.
type warningsCase struct {
	name   string
	ed     *lang.EventDescription
	facts  []*lang.Term
	events stream.Stream
}

// unsafeRulesED has one rule for each way a variable can reach a warning:
// through a non-ground head, a condition the engine refuses, a builtin error
// under "_r", and a grounding declaration's under "_g0" — plus one rule the
// load drops.
const unsafeRulesED = `
initiatedAt(withinArea(Vl, AreaType)=true, T) :-
    happensAt(entersArea(Vl, AreaID), T).
initiatedAt(inside(Vl)=true, T) :-
    happensAt(entersArea(Vl, AreaID), T),
    holdsAt(withinArea(Vl, fishing)=true, T2).
terminatedAt(inside(Vl)=true, T) :-
    happensAt(leavesArea(Vl, AreaID), T),
    Speed / 0 > Limit.
holdsFor(busy(Vl)=true, I) :-
    holdsFor(inside(Vl)=true, I1),
    union_all([I1, I2], I).
grounding(busy(Vl)) :- vessel(Vl).
holdsFor(idle(Vl)=true, I) :-
    holdsFor(inside(Vl)=true, I).
grounding(idle(Vl)) :- vessel(Vl), Limit > 3.
initiatedAt(orphan(Vl)=true, T) :-
    holdsAt(inside(Vl)=true, T).
vessel(v1).
`

func warningsCases(t *testing.T) []warningsCase {
	t.Helper()
	specimen := func(name string) *lang.EventDescription {
		src, err := os.ReadFile(filepath.Join("..", "..", "examples", "lint", name))
		if err != nil {
			t.Fatal(err)
		}
		ed, err := parser.ParseEventDescription(string(src))
		if err != nil {
			t.Fatal(err)
		}
		return ed
	}
	scen, err := maritime.BuildScenario(maritime.ScenarioConfig{Vessels: 14, Seed: 7, IntervalSec: 60})
	if err != nil {
		t.Fatal(err)
	}
	events := maritime.Preprocess(scen.Messages, scen.Map, maritime.DefaultPreprocessConfig())
	facts := maritime.DynamicFacts(events, scen.Fleet)
	sea := func(name string, rules *lang.EventDescription) warningsCase {
		return warningsCase{name, maritime.FullED(rules, scen.Map, scen.Fleet, maritime.ObservedPairs(events)), facts, events}
	}
	road := fleet.BuildScenario(fleet.ScenarioConfig{Vehicles: 6, Seed: 7})

	unsafe, err := parser.ParseEventDescription(unsafeRulesED)
	if err != nil {
		t.Fatal(err)
	}
	cases := []warningsCase{
		{"hand-written unsafe rules", unsafe, nil, stream.Stream{
			ev(10, "entersArea(v1, a1)"), ev(40, "leavesArea(v1, a1)"), ev(3700, "entersArea(v2, a1)")}},
		sea("maritime gold", maritime.GoldED()),
		sea("maritime corrupted specimen", specimen("corrupted_maritime.prolog")),
		{"fleet gold", road.FullED(fleet.GoldED()), nil, road.Events},
		{"fleet corrupted specimen", road.FullED(specimen("corrupted_fleet.prolog")), nil, road.Events},
	}
	for _, m := range llm.AllModels() {
		for _, scheme := range []prompt.Scheme{prompt.FewShot, prompt.ChainOfThought} {
			gen, err := prompt.RunPipeline(m, scheme, maritime.PromptDomain(), maritime.CurriculumRequests())
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, sea("generated "+m.Name()+scheme.Suffix(), gen.ED()))
		}
	}
	return cases
}

// renderWarnings loads the case and runs it, and renders every warning in
// the order the engine reported it: the load's, then the run's.
func renderWarnings(t *testing.T, c warningsCase, workers int) string {
	t.Helper()
	e, err := New(c.ed, Options{ExtraFacts: c.facts, Workers: workers})
	if err != nil {
		return fmt.Sprintf("== %s\nload failed: %v\n", c.name, err)
	}
	rec, err := e.Run(c.events, RunOptions{Window: 3600})
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s\n", c.name)
	for _, w := range e.Warnings() {
		fmt.Fprintf(&b, "load: %s\n", w)
	}
	for _, w := range rec.Warnings {
		fmt.Fprintf(&b, "run: %s\n", w)
	}
	return b.String()
}

// TestCompiledWarningsGolden: the warnings are where a compiled rule shows
// its variables, so they pin what compilation must not change — the "_r" and
// "_g<i>" names, which condition is reached first, what is bound when it is.
// The golden file was written by the evaluator that renamed and resolved
// every rule per use; every gold standard, every committed corrupted
// specimen and every simulated model's generated event description must
// still produce it line for line, at any worker count.
func TestCompiledWarningsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 16 event descriptions over the 14-vessel scenario")
	}
	var got strings.Builder
	for _, c := range warningsCases(t) {
		seq := renderWarnings(t, c, 1)
		if par := renderWarnings(t, c, 4); par != seq {
			t.Errorf("%s: warnings differ between Workers:1 and Workers:4", c.name)
		}
		got.WriteString(seq)
	}
	golden := filepath.Join("testdata", "warnings.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("warnings differ from %s at line %d:\n got %q\nwant %q", golden, i+1, gl[i], append(wl, "<end of file>")[i])
			}
		}
		t.Fatalf("warnings differ from %s: %d lines, want %d", golden, len(gl), len(wl))
	}
	// Three of them by name, so a regenerated golden file cannot quietly
	// lose what it is for.
	for _, pin := range []string{
		// a comparison against a threshold the rule never looked up
		"run: movingSpeed/1: condition Speed_r =< MovingMin_r: kb: =<: kb: MovingMin_r is not an arithmetic expression\n",
		// an initiatedAt head with a variable the body does not bind
		"run: withinArea/2: initiatedAt rule derives non-ground FVP withinArea(v1, AreaType_r)=true; occurrence dropped\n",
		// a holdsAt condition at a time-point nothing binds
		"run: inside/1: holdsAt condition holdsAt(withinArea(Vl_r, fishing)=true, T2_r) has an unbound time-point; rule fails\n",
	} {
		if !strings.Contains(got.String(), pin) {
			t.Errorf("no warning %q", pin)
		}
	}
}

// TestCompileRule checks what a compiled rule holds: the anchor taken out of
// the body wherever it stood, each remaining condition's strategy (which
// depends on the kind of rule), the "_r"/"_g<i>" names, and one slot space
// shared by a holdsFor rule and its grounding declarations.
func TestCompileRule(t *testing.T) {
	kinds := func(r *rule) string {
		var out []string
		for _, c := range r.body {
			s := fmt.Sprint(c.kind)
			if c.neg {
				s = "not " + s
			}
			out = append(out, s)
		}
		return strings.Join(out, " ")
	}
	simple := compileRule(parser.MustParseClause(`initiatedAt(f(V)=true, T) :-
		vessel(V), not happensAt(g(V), T), happensAt(e(V, A), T), happensAt(e2(V), T),
		holdsAt(h(V)=true, T), A = V, union_all([I], J), holdsFor(h(V)=true, I).`), nil, kb.New())
	if got := fmt.Sprintf("%s @ %s / %s", simple.pattern, simple.timeArg, simple.head); got != "e(V_r, A_r) @ T_r / f(V_r)=true" {
		t.Errorf("anchor and head: %s", got)
	}
	want := fmt.Sprint(condBackground, " not ", condHappensAt, " ", condHappensAt, " ", condHoldsAt, " ", condBuiltin, " ", condBackground, " ", condHoldsFor)
	if got := kinds(simple); got != want {
		t.Errorf("simple rule conditions: %s, want %s", got, want)
	}
	if simple.ivar != nil || simple.nvars != 5 {
		t.Errorf("simple rule: ivar %v, %d slots, want none and 5 (V, T, A, I, J)", simple.ivar, simple.nvars)
	}
	// The anchor is unified first, so what it binds directly is decided by
	// the anchor alone: here V (slot 0), A (2) and T (1).
	for src, want := range map[string]string{
		"happensAt(e(V, A), T), vessel(V)": "[0 2] 1",
		"happensAt(p(V, V), T)":            "[0 -1] 1",
		"happensAt(p(V, a1), T)":           "[0 -1] 1",
		"happensAt(p(V, T), T)":            "[0 1] -1",
		"happensAt(p(g(V), V), 5)":         "[-1 -1] -1",
	} {
		r := compileRule(parser.MustParseClause("initiatedAt(f(V)=true, T) :- "+src+"."), nil, kb.New())
		if got := fmt.Sprint(r.argSlots, r.timeSlot); got != want {
			t.Errorf("%s: anchor slots %s, want %s", src, got, want)
		}
	}

	sd := compileRule(parser.MustParseClause(`holdsFor(busy(V)=true, I) :-
		holdsFor(a(V)=true, I1), not holdsFor(b(V)=true, I2), vessel(V),
		union_all([I1, I2], I3), intersect_all([I1, I3], I4), relative_complement_all(I4, [I2], I).`),
		[]*lang.Clause{
			parser.MustParseClause("grounding(busy(V)) :- vessel(V)."),
			parser.MustParseClause("grounding(busy(X)) :- tug(X), not vessel(V)."),
		}, kb.New())
	want = fmt.Sprint(condHoldsFor, " not ", condHoldsFor, " ", condBackground, " ", condUnion, " ", condIntersect, " ", condRelComp)
	if got := kinds(sd); got != want {
		t.Errorf("holdsFor rule conditions: %s, want %s", got, want)
	}
	if sd.pattern != nil || sd.ivar.String() != "I_r" || sd.head.String() != "busy(V_r)=true" {
		t.Errorf("holdsFor rule: pattern %v, ivar %s, head %s", sd.pattern, sd.ivar, sd.head)
	}
	if len(sd.groundings) != 2 || sd.groundings[0].fluent.String() != "busy(V_g0)" ||
		sd.groundings[1].fluent.String() != "busy(X_g1)" || sd.groundings[1].body[1].String() != "not vessel(V_g1)" {
		t.Fatalf("groundings: %+v", sd.groundings)
	}
	// V, I, I1..I4 of the rule, V_g0, X_g1, V_g1: nine names, nine slots, none shared.
	if sd.nvars != 9 {
		t.Errorf("holdsFor rule with groundings has %d slots, want 9", sd.nvars)
	}
	if v, g0 := sd.head.Args[0].Args[0], sd.groundings[0].fluent.Args[0]; v.Int == g0.Int {
		t.Errorf("rule variable %s and grounding variable %s share slot %d", v, g0, v.Int)
	}
}

// TestCompiledRuleShapes runs one rule per shape the load-time compilation
// treats specially — anchor arguments bound straight into a slot or unified,
// background conditions answered from a candidate list fixed at load, from
// the first-argument index at run time or from a full scan — against
// intervals and warnings written out by hand.
func TestCompiledRuleShapes(t *testing.T) {
	const ed = `
limit(5.0, slow).
limit(7, fast).
zone(area(a1), fishing).
zone(area(a2), natura).
vesselType(v1, tug).
vesselType(v2, cargo).

% anchors: a repeated variable, a constant argument, T inside the pattern, a
% variable first seen nested in an earlier argument
initiatedAt(self(V)=true, T) :- happensAt(proximity_start(V, V), T).
initiatedAt(inA1(V)=true, T) :- happensAt(entersArea(V, a1), T).
initiatedAt(stamped(V)=true, T) :- happensAt(ping(V, T), T).
initiatedAt(nested(V)=true, T) :- happensAt(tagged(f(V), V), T).

% background conditions: a constant first argument, a numeric one (an int
% against a float fact), a compound one, and each of the last two bound at
% run time
initiatedAt(typeOfV1(V)=Type, T) :- happensAt(velocity(V, S), T), vesselType(v1, Type).
initiatedAt(label(V)=L, T) :- happensAt(velocity(V, S), T), limit(5, L).
initiatedAt(kindOfA1(V)=K, T) :- happensAt(entersArea(V, A), T), zone(area(a1), K).
initiatedAt(speedLabel(V)=L, T) :- happensAt(velocity(V, S), T), limit(S, L).
initiatedAt(zoneKind(V)=K, T) :- happensAt(entersArea(V, A), T), zone(area(A), K).

% negated conditions, over a known and an unknown predicate; a positive
% condition over an unknown predicate
initiatedAt(notTug(V)=true, T) :- happensAt(velocity(V, S), T), not vesselType(V, tug).
initiatedAt(free(V)=true, T) :- happensAt(ping(V, X), T), not banned(V).
initiatedAt(ghost(V)=true, T) :- happensAt(velocity(V, S), T), noSuchFact(V, S).

% a condition that is a variable, matched as what the event binds it to
initiatedAt(called(V)=true, T) :- happensAt(call(V, G), T), G.
`
	events := stream.Stream{
		ev(10, "velocity(v2, 4)"),
		ev(20, "velocity(v1, 7.0)"),
		ev(30, "velocity(v2, 5)"),
		ev(40, "entersArea(v1, a1)"),
		ev(50, "entersArea(v2, a2)"),
		ev(60, "entersArea(v3, a3)"),
		ev(70, "proximity_start(v1, v1)"),
		ev(72, "proximity_start(v1, v2)"),
		ev(74, "proximity_start(V9, V9)"), // slotless variables: data, equal only by name
		ev(75, "proximity_start(V9, V8)"),
		ev(80, "ping(v1, 80)"),
		ev(82, "ping(v2, 81)"),
		ev(84, "ping(v3, 84.0)"),
		ev(86, "tagged(f(v1), v1)"),
		ev(87, "tagged(f(v1), v2)"),
		ev(90, "entersArea(v4, Area)"), // matches no constant, and finds no zone
		ev(92, "call(v1, vesselType(v1, tug))"),
		ev(93, "call(v2, vesselType(v2, tug))"),
	}
	from := func(s int64) intervals.List { return intervals.List{ivl(s, 100)} }
	want := map[string]intervals.List{
		"self(v1)=true":        from(71),
		"inA1(v1)=true":        from(41),
		"stamped(v1)=true":     from(81),
		"stamped(v3)=true":     from(85),
		"nested(v1)=true":      from(87),
		"typeOfV1(v1)=tug":     from(21),
		"typeOfV1(v2)=tug":     from(11),
		"label(v1)=slow":       from(21),
		"label(v2)=slow":       from(11),
		"kindOfA1(v1)=fishing": from(41),
		"kindOfA1(v2)=fishing": from(51),
		"kindOfA1(v3)=fishing": from(61),
		"kindOfA1(v4)=fishing": from(91),
		"speedLabel(v1)=fast":  from(21),
		"speedLabel(v2)=slow":  from(31),
		"zoneKind(v1)=fishing": from(41),
		"zoneKind(v2)=natura":  from(51),
		"notTug(v2)=true":      from(11),
		"free(v1)=true":        from(81),
		"free(v2)=true":        from(83),
		"free(v3)=true":        from(85),
		"called(v1)=true":      from(93),
	}
	wantWarnings := []string{
		// the predicate of a variable condition is not known until run time
		"called/1: unknown predicate var; condition fails",
		"ghost/1: unknown predicate noSuchFact/2; condition fails",
		"self/1: initiatedAt rule derives non-ground FVP self(V9)=true; occurrence dropped",
	}
	for _, opts := range []RunOptions{{Start: 0, End: 100}, {Start: 0, End: 100, Window: 40, Slide: 20}} {
		rec, err := mustEngine(t, ed, Options{Workers: 1}).Run(events, opts)
		if err != nil {
			t.Fatal(err)
		}
		for key, list := range want {
			checkIntervals(t, rec, key, list)
		}
		if keys := rec.Keys(); len(keys) != len(want) {
			t.Errorf("window %d: recognised %d FVPs, want %d: %v", opts.Window, len(keys), len(want), keys)
		}
		var warned []string
		for _, w := range rec.Warnings {
			warned = append(warned, w.String())
		}
		sort.Strings(warned) // each where it first occurs, which depends on the windows
		if got := strings.Join(warned, "\n"); got != strings.Join(wantWarnings, "\n") {
			t.Errorf("window %d: warnings\n%s\nwant\n%s", opts.Window, got, strings.Join(wantWarnings, "\n"))
		}
	}
}

// TestNonGroundEventDoesNotBind: events reach the engine unnumbered, so a
// variable inside one (which the stream readers reject, but a hand-built
// stream may carry) is data to the rules — it matches no constant, a rule
// variable can take it as its value, and the FVP that value lands in is
// dropped as non-ground. The engine says the same at any worker count, in the
// batch and the streaming run, and does not crash.
func TestNonGroundEventDoesNotBind(t *testing.T) {
	const ed = `
inputEvent(entersArea(_, _)).
initiatedAt(inArea(Vl)=true, T) :- happensAt(entersArea(Vl, a1), T).
initiatedAt(within(Vl, Area)=true, T) :- happensAt(entersArea(Vl, Area), T).
`
	events := stream.Stream{
		ev(1, "entersArea(v1, a1)"),
		ev(2, "entersArea(v2, Area)"),
		ev(3, "entersArea(V17, a1)"),
		ev(9, "entersArea(v3, a2)"),
	}
	for i := 0; i < 12; i++ { // enough units for the worker pool to engage
		events = append(events, ev(9, fmt.Sprintf("entersArea(w%d, a2)", i)))
	}
	var want string
	for _, workers := range []int{1, 4} {
		e := mustEngine(t, ed, Options{Strict: true, Workers: workers})
		rec, err := e.Run(events, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		checkIntervals(t, rec, "inArea(v1)=true", intervals.List{ivl(2, 10)})
		checkIntervals(t, rec, "within(v1, a1)=true", intervals.List{ivl(2, 10)})
		for _, key := range rec.Keys() {
			if strings.Contains(key, "v2") || strings.Contains(key, "V17") {
				t.Errorf("workers %d: non-ground event recognised as %s", workers, key)
			}
		}
		var warned []string
		for _, w := range rec.Warnings {
			warned = append(warned, w.Msg)
		}
		got := strings.Join(rec.Keys(), "\n") + "\n" + strings.Join(warned, "\n")
		for _, msg := range []string{
			"initiatedAt rule derives non-ground FVP within(v2, Area)=true; occurrence dropped",
			"initiatedAt rule derives non-ground FVP inArea(V17)=true; occurrence dropped",
		} {
			if !strings.Contains(got, msg) {
				t.Errorf("workers %d: missing warning %q in\n%s", workers, msg, got)
			}
		}
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("workers %d differs from workers 1:\n%s\nvs\n%s", workers, got, want)
		}

		sres, err := e.RunStream(events, StreamOptions{RunOptions: RunOptions{Window: 4}, MaxDelay: 2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkIntervals(t, sres.Recognition, "inArea(v1)=true", intervals.List{ivl(2, 10)})
	}
}

// TestResumeRejectsNonGroundCheckpointEvent: a checkpoint whose reorder
// buffer holds a non-ground event (one written before the readers refused
// them) is refused with an error naming the event.
func TestResumeRejectsNonGroundCheckpointEvent(t *testing.T) {
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	arrivals := stream.Stream{
		ev(2, "entersArea(v1, a1)"),
		ev(12, "entersArea(v2, a1)"),
		ev(24, "entersArea(v3, Area)"),
		ev(25, "gap_start(v9)"),
		ev(38, "leavesArea(v1, a1)"),
	}
	opts := StreamOptions{
		RunOptions:      RunOptions{Window: 10, Start: 0, End: 40},
		MaxDelay:        20,
		CheckpointPath:  filepath.Join(t.TempDir(), "run.ckpt"),
		CheckpointEvery: 1,
	}
	if _, err := e.RunStream(arrivals, opts, crashAfter(2)); !errors.Is(err, errCrash) {
		t.Fatalf("interrupted run err = %v, want crash", err)
	}
	_, err := e.ResumeStream(opts.CheckpointPath, arrivals, opts, nil)
	if err == nil || !strings.Contains(err.Error(), `checkpoint event "entersArea(v3, Area)" is not ground`) {
		t.Fatalf("resume err = %v, want the non-ground event named", err)
	}
}
