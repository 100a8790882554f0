package rtec

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"rtecgen/internal/intervals"
	"rtecgen/internal/lang"
	"rtecgen/internal/llm"
	"rtecgen/internal/maritime"
	"rtecgen/internal/parser"
	"rtecgen/internal/stream"
)

// This file checks the runtime warnings of defective definitions — the
// paper's input distribution — on every path that carries them. A builtin
// condition whose operand does not evaluate warns at every anchor event, and
// the unit context remembers the Warning it rendered for a (condition,
// offending term) instead of rendering it again (ruleEval.warnArith). The
// oracle renders per occurrence: the same units driven through a context
// whose memory is wiped before every unit, and, for the hand-written rules,
// the literal texts the rendering evaluator printed before the memory
// existed.

// doomedRulesED has one rule per way an operand fails to evaluate.
const doomedRulesED = `
inputEvent(velocity(_, _)).
inputEvent(gear(_, _)).
thresholds(cruise, 10).

initiatedAt(fast(V)=true, T) :-
    happensAt(velocity(V, Speed), T),
    thresholds(cruise, C),
    Speed > C.
terminatedAt(fast(V)=true, T) :-
    happensAt(velocity(V, Speed), T),
    thresholds(cruise, C),
    Speed =< C.

initiatedAt(slow(V)=true, T) :-
    happensAt(velocity(V, Speed), T),
    Speed =< Floor.
terminatedAt(slow(V)=true, T) :-
    happensAt(velocity(V, Speed), T),
    Speed =< Floor.
initiatedAt(crawling(V)=true, T) :-
    happensAt(velocity(V, Speed), T),
    Speed =< Floor.

initiatedAt(geared(V)=true, T) :-
    happensAt(gear(V, G), T),
    ratio(G) > 1.
initiatedAt(lost(V)=true, T) :-
    happensAt(velocity(V, Speed), T),
    A < B.
initiatedAt(halted(V)=true, T) :-
    happensAt(velocity(V, Speed), T),
    6 / 0 < Speed.
initiatedAt(stalled(V)=true, T) :-
    happensAt(gear(V, G), T),
    G / 0 > 1.
`

// doomedRulesWarnings is what a run of doomedRulesED over doomedRulesEvents
// warns, in order, whatever the window geometry — copied from the evaluator
// that rendered every occurrence (the parent of the commit that added the
// memory). An unbound operand: once per fluent, though slow/1 reaches it from
// two rules and crawling/1 spells the same condition; the same condition with
// its other operand bound to a non-number by the event, which fails first (one
// text for v2's, v3's and v1's "unknown", another for "n_a", between
// occurrences of the unbound one); a compound operand the bindings have to
// build (one text per gear); both operands unbound (the first is named); a
// division by zero, written out or through a binding.
var doomedRulesWarnings = []string{
	"crawling/1: condition Speed_r =< Floor_r: kb: =<: kb: Floor_r is not an arithmetic expression",
	"crawling/1: condition Speed_r =< Floor_r: kb: =<: kb: unknown is not an arithmetic expression",
	"crawling/1: condition Speed_r =< Floor_r: kb: =<: kb: n_a is not an arithmetic expression",
	"fast/1: condition Speed_r > C_r: kb: >: kb: unknown is not an arithmetic expression",
	"fast/1: condition Speed_r > C_r: kb: >: kb: n_a is not an arithmetic expression",
	"fast/1: condition Speed_r =< C_r: kb: =<: kb: unknown is not an arithmetic expression",
	"fast/1: condition Speed_r =< C_r: kb: =<: kb: n_a is not an arithmetic expression",
	"geared/1: condition ratio(G_r) > 1: kb: >: kb: ratio(3) is not an arithmetic expression",
	"geared/1: condition ratio(G_r) > 1: kb: >: kb: ratio(4) is not an arithmetic expression",
	"halted/1: condition 6 / 0 < Speed_r: kb: <: kb: division by zero in 6 / 0",
	"lost/1: condition A_r < B_r: kb: <: kb: A_r is not an arithmetic expression",
	"slow/1: condition Speed_r =< Floor_r: kb: =<: kb: Floor_r is not an arithmetic expression",
	"slow/1: condition Speed_r =< Floor_r: kb: =<: kb: unknown is not an arithmetic expression",
	"slow/1: condition Speed_r =< Floor_r: kb: =<: kb: n_a is not an arithmetic expression",
	"stalled/1: condition G_r / 0 > 1: kb: >: kb: division by zero in 3 / 0",
	"stalled/1: condition G_r / 0 > 1: kb: >: kb: division by zero in 4 / 0",
	"geared/1: condition ratio(G_r) > 1: kb: >: kb: ratio(0) is not an arithmetic expression",
	"stalled/1: condition G_r / 0 > 1: kb: >: kb: division by zero in 0 / 0",
}

func doomedRulesEvents() stream.Stream {
	events := stream.Stream{
		ev(1, "velocity(v1, 12)"), ev(2, "velocity(v2, unknown)"), ev(3, "gear(v1, 3)"),
		ev(4, "velocity(v3, unknown)"), ev(5, "gear(v2, 4)"), ev(6, "velocity(v4, n_a)"),
		ev(7, "gear(v1, 3)"), ev(8, "velocity(v1, 8)"),
		ev(12, "velocity(v2, 11)"), ev(13, "gear(v3, 4)"), ev(14, "velocity(v1, unknown)"),
		ev(18, "velocity(v3, 15)"), ev(21, "gear(v1, 0)"), ev(23, "velocity(v2, 9)"), ev(27, "velocity(v5, n_a)"),
	}
	for i := 0; i < 12; i++ { // enough units in one window for the worker pool to engage
		events = append(events, ev(9, fmt.Sprintf("velocity(w%d, %d)", i, 5+i)), ev(9, fmt.Sprintf("gear(w%d, 3)", i)))
	}
	events.Sort()
	return events
}

// goldDeclarations returns the clauses of the maritime gold description that
// are not temporal rules: what a perturbed rule set needs beside it to load.
func goldDeclarations() []*lang.Clause {
	var out []*lang.Clause
	for _, cl := range maritime.GoldED().Clauses {
		if fvp, _ := cl.HeadFVP(); fvp == nil {
			out = append(out, cl)
		}
	}
	return out
}

// warningSet is the run's warnings, sorted.
func warningSet(rec *Recognition) []string {
	var out []string
	for _, w := range rec.Warnings {
		out = append(out, w.String())
	}
	sort.Strings(out)
	return out
}

// warningCase is one event description with the stream it runs over.
type warningCase struct {
	name   string
	ed     *lang.EventDescription
	facts  []*lang.Term
	events stream.Stream // time-sorted
	// late is the event the arrival order of the streaming runs moves behind
	// the first one at least maxDelay/2 after it: a late arrival that revises
	// a window already delivered.
	late           int
	window, slide  int64
	maxDelay       int64
	renameFrom, to string // a variable that reaches a warning, and another name for it
}

// checkWarningPaths runs the case down every path that carries runtime
// warnings and requires them to agree, and returns the batch result over
// tumbling windows.
func checkWarningPaths(t *testing.T, c warningCase) *Recognition {
	t.Helper()
	engine := func(ed *lang.EventDescription, opts Options) *Engine {
		opts.ExtraFacts = c.facts
		e, err := New(ed, opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		return e
	}
	batch := func(opts Options, ro RunOptions) *Recognition {
		rec, err := engine(c.ed, opts).Run(c.events, ro)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		return rec
	}

	// The in-window pool buffers a unit's acts and applies them in unit
	// order: same values, same order.
	tumbling := RunOptions{Window: c.window}
	ref := batch(Options{Workers: 1}, tumbling)
	if got, want := recognitionFingerprint(t, batch(Options{Workers: 4}, tumbling)), recognitionFingerprint(t, ref); got != want {
		t.Errorf("%s: tumbling batch at Workers:4 differs from Workers:1:\n%s", c.name, firstDiff(got, want))
	}

	// Sliding windows replay the carried warn acts of clean time-points.
	sliding := RunOptions{Window: c.window, Slide: c.slide}
	slideRef := batch(Options{Workers: 1, DisableDelta: true}, sliding)
	for _, workers := range []int{1, 4} {
		if a, b := recognitionFingerprint(t, batch(Options{Workers: workers}, sliding)), recognitionFingerprint(t, slideRef); a != b {
			t.Errorf("%s: sliding batch at Workers:%d differs from the DisableDelta run:\n%s", c.name, workers, firstDiff(a, b))
		}
	}

	// A late arrival revises a window that warned: the revision installs or
	// replays the window's own warn acts.
	arrivals := append(stream.Stream{}, c.events...)
	late := arrivals[c.late]
	arrivals = append(arrivals[:c.late], arrivals[c.late+1:]...)
	at := sort.Search(len(arrivals), func(i int) bool { return arrivals[i].Time >= late.Time+c.maxDelay/2 }) + 1
	arrivals = append(arrivals[:at], append(stream.Stream{late}, arrivals[at:]...)...)
	first, last := c.events.TimeRange() // the bounds the batch runs derive
	var streamed [2]*Recognition
	for i, noDelta := range []bool{false, true} {
		r, err := engine(c.ed, Options{Workers: 1, DisableDelta: noDelta}).NewStreamRunner(
			StreamOptions{RunOptions: RunOptions{Window: c.window, Slide: c.slide, Start: first, End: last + 1}, MaxDelay: c.maxDelay}, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, a := range arrivals {
			if err := r.Ingest(a); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		res, err := r.Finish()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Stats.Late != 1 || res.Stats.Dropped != 0 {
			t.Fatalf("%s: the streaming run: %s, want one late arrival admitted", c.name, res.Stats)
		}
		streamed[i] = res.Recognition
	}
	if a, b := recognitionFingerprint(t, streamed[0]), recognitionFingerprint(t, streamed[1]); a != b {
		t.Errorf("%s: the streaming run differs from the DisableDelta streaming run:\n%s", c.name, firstDiff(a, b))
	}
	if a, b := csvOf(t, streamed[0]), csvOf(t, slideRef); a != b {
		t.Errorf("%s: the streaming run recognises other intervals than the batch run:\n%s", c.name, firstDiff(a, b))
	}
	if a, b := warningSet(streamed[0]), warningSet(slideRef); !reflect.DeepEqual(a, b) {
		t.Errorf("%s: the streaming run warns\n%s\nthe batch run\n%s", c.name, strings.Join(a, "\n"), strings.Join(b, "\n"))
	}

	// Two definitions that differ only in a variable's name share a key in a
	// Prepared's fluent table, and a recorded result that carries warnings
	// prints the publisher's names: each engine reports its own.
	p, err := Prepare(c.events, tumbling)
	if err != nil {
		t.Fatal(err)
	}
	renamed := renameVars(c.ed, c.renameFrom, c.to)
	alone := map[*lang.EventDescription]string{c.ed: recognitionFingerprint(t, ref)}
	if rec, err := engine(renamed, Options{Workers: 1}).Run(c.events, tumbling); err != nil {
		t.Fatal(err)
	} else {
		alone[renamed] = recognitionFingerprint(t, rec)
	}
	for _, ed := range []*lang.EventDescription{c.ed, renamed, c.ed} {
		shared, err := engine(ed, Options{Workers: 1}).RunPrepared(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := recognitionFingerprint(t, shared), alone[ed]; a != b {
			t.Errorf("%s: over a shared Prepared the run differs from a run alone:\n%s", c.name, firstDiff(a, b))
		}
	}
	return ref
}

// checkUnitsAgainstFreshRendering drives every anchor event of every
// simple-fluent rule of the case, window by window, through two unit
// contexts: one kept for the whole window, as evaluation keeps it, and the
// oracle, which forgets before every unit and so renders every warning where
// it occurs. It returns how many warn acts the units put and how many
// renderings the kept context remembered.
func checkUnitsAgainstFreshRendering(t *testing.T, c warningCase) (warnActs, remembered int) {
	t.Helper()
	e, err := New(c.ed, Options{ExtraFacts: c.facts, Workers: 1})
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	p, err := prepare(c.events, RunOptions{Window: c.window})
	if err != nil {
		t.Fatal(err)
	}
	for i, index := range p.windows {
		var sink []Warning
		w := newWindowState(e, index, p.tl.windowStart(i), p.tl.q(i), nil, &sink, nil, nil)
		w.evaluate() // holdsAt conditions read the window's cache
		kept, oracle := &ruleEval{w: w}, &ruleEval{w: w}
		for _, ind := range e.order {
			def := e.fluents[ind]
			for slot := 0; def.kind == Simple && slot < len(def.inits)+len(def.terms); slot++ {
				r := def.ruleAt(slot)
				if !r.pattern.IsCallable() {
					continue
				}
				for _, anchor := range w.byInd[r.pattern.Pred()] {
					kept.buf, oracle.buf, oracle.doomed = nil, nil, nil
					w.anchorUnit(def, r, anchor, kept)
					w.anchorUnit(def, r, anchor, oracle)
					if !sameActs(kept.buf, oracle.buf) {
						t.Fatalf("%s: window %d, %s rule %d at %s:\nremembering context put %v\nrendering context put %v",
							c.name, i, ind, slot, anchor.Atom, kept.buf, oracle.buf)
					}
					for _, a := range kept.buf {
						if a.fvp == nil {
							warnActs++
						}
					}
				}
			}
		}
		remembered += len(kept.doomed)
	}
	return warnActs, remembered
}

func TestRuntimeWarningsMatchOracle(t *testing.T) {
	hand := warningCase{
		name: "hand-written doomed rules", events: doomedRulesEvents(),
		late: 0, window: 10, slide: 5, maxDelay: 24,
		renameFrom: "Floor", to: "Least",
	}
	var err error
	if hand.ed, err = parser.ParseEventDescription(doomedRulesED); err != nil {
		t.Fatal(err)
	}
	rec := checkWarningPaths(t, hand)
	var got []string
	for _, w := range rec.Warnings {
		got = append(got, w.String())
	}
	if !reflect.DeepEqual(got, doomedRulesWarnings) {
		t.Errorf("the hand-written rules warn\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(doomedRulesWarnings, "\n"))
	}
	checkIntervals(t, rec, "fast(v1)=true", intervals.List{ivl(2, 9)})
	checkIntervals(t, rec, "fast(v2)=true", intervals.List{ivl(13, 24)})
	if acts, remembered := checkUnitsAgainstFreshRendering(t, hand); acts <= remembered || remembered == 0 {
		t.Errorf("hand-written rules: %d warn acts, %d renderings remembered: the units never met a condition twice", acts, remembered)
	}
	if testing.Short() {
		return
	}

	// The gold description under every perturbation operator: dropConditions
	// is the generator of doomed comparisons, the others warn in other ways
	// or not at all, and must come through the same.
	scen, err := maritime.BuildScenario(maritime.ScenarioConfig{Vessels: 5, Seed: 7, IntervalSec: 60})
	if err != nil {
		t.Fatal(err)
	}
	voyage := maritime.Preprocess(scen.Messages, scen.Map, maritime.DefaultPreprocessConfig())
	voyage.Sort()
	first, _ := voyage.TimeRange()
	voyage = voyage.Window(first, first+2*3600)
	facts := maritime.DynamicFacts(voyage, scen.Fleet)
	late := 0
	for i, e := range voyage { // a velocity report ten minutes before the first window closes
		if e.Atom.Functor == "velocity" && e.Time >= first+3000 {
			late = i
			break
		}
	}
	know := llm.MaritimeKnowledge()
	full := llm.Rates{Rename: 1, ValueName: 1, Drop: 1, Undefined: 1, OpSwap: 1, Extra: 1}
	ops := append(llm.Perturbations(full), llm.SwapIntervalOp(), llm.AddRedundantIntersect(), llm.Rename("thresholds", "limits", true))
	doomed := 0
	for i, op := range ops {
		seeds := []int64{1, 2}
		if i >= len(ops)-3 {
			seeds = seeds[:1] // these three draw nothing
		}
		for _, seed := range seeds {
			rules := &lang.EventDescription{Clauses: append(know.Perturbed(op, seed), goldDeclarations()...)}
			c := warningCase{
				name:  fmt.Sprintf("gold under %s, seed %d", op.Name, seed),
				ed:    maritime.FullED(rules, scen.Map, scen.Fleet, maritime.ObservedPairs(voyage)),
				facts: facts, events: voyage,
				late: late, window: 3600, slide: 1200, maxDelay: 1800,
				renameFrom: "MovingMin", to: "Floor",
			}
			rec := checkWarningPaths(t, c)
			acts, remembered := checkUnitsAgainstFreshRendering(t, c)
			if op.Name == "dropConditions" {
				if remembered == 0 || acts <= remembered || len(rec.Warnings) == 0 {
					t.Errorf("%s: %d warnings, %d warn acts, %d renderings remembered: dropped conditions must doom comparisons", c.name, len(rec.Warnings), acts, remembered)
				}
				doomed += remembered
			}
		}
	}
	t.Logf("%d operators; dropConditions left %d doomed (condition, window) pairs", len(ops), doomed)
}

// TestUniqueWarnings: batch, streaming and merged results list a warning
// once, where it first occurred.
func TestUniqueWarnings(t *testing.T) {
	e := mustEngine(t, doomedRulesED, Options{})
	events := doomedRulesEvents()
	rec, err := e.Run(events, RunOptions{Window: 10})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[Warning]bool{}
	for _, w := range rec.Warnings {
		if seen[w] {
			t.Errorf("the batch run lists %q twice", w)
		}
		seen[w] = true
	}
	if n := len(rec.Warnings); n != len(doomedRulesWarnings) {
		t.Errorf("%d warnings over three windows, want %d", n, len(doomedRulesWarnings))
	}
	merged := MergeRecognitions(rec, nil, rec)
	if !reflect.DeepEqual(merged.Warnings, rec.Warnings) {
		t.Errorf("merging a result with itself lists %v, want %v", merged.Warnings, rec.Warnings)
	}
	if got := uniqueWarnings(nil); got != nil {
		t.Errorf("no warnings list as %v, want nil", got)
	}
	r := rand.New(rand.NewSource(5))
	res, err := e.RunStream(boundedShuffle(r, events, 8), StreamOptions{RunOptions: RunOptions{Window: 10}, MaxDelay: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := warningSet(res.Recognition), warningSet(rec); !reflect.DeepEqual(a, b) {
		t.Errorf("the streaming run lists %v, the batch run %v", a, b)
	}
}
