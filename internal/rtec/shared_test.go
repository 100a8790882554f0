package rtec

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"rtecgen/internal/correct"
	"rtecgen/internal/lang"
	"rtecgen/internal/llm"
	"rtecgen/internal/maritime"
	"rtecgen/internal/parser"
	"rtecgen/internal/prompt"
	"rtecgen/internal/stream"
	"rtecgen/internal/telemetry"
)

// sharedCase is one event description of the set the shared-evaluation
// tests run over one stream.
type sharedCase struct {
	name string
	ed   *lang.EventDescription
}

// renameVars returns the clauses with every variable named old renamed.
func renameVars(ed *lang.EventDescription, old, to string) *lang.EventDescription {
	src := ed.String()
	out, err := parser.ParseEventDescription(strings.ReplaceAll(src, old, to))
	if err != nil {
		panic(err)
	}
	return out
}

// sharedCases is the paper pipeline's kind of input: the gold event
// description, the twelve generated ones (each a perturbation of the gold
// one by llm/mutate.go), their minimally corrected and autofixed forms, a
// generated one with a variable that reaches its warnings renamed, and the
// gold one with two fluents' rules swapped — near-copies of each other over
// one stream and one background knowledge base.
func sharedCases(t *testing.T) (cases []sharedCase, facts []*lang.Term, events stream.Stream) {
	t.Helper()
	scen, err := maritime.BuildScenario(maritime.ScenarioConfig{Vessels: 14, Seed: 7, IntervalSec: 60})
	if err != nil {
		t.Fatal(err)
	}
	events = maritime.Preprocess(scen.Messages, scen.Map, maritime.DefaultPreprocessConfig())
	facts = maritime.DynamicFacts(events, scen.Fleet)
	pairs := maritime.ObservedPairs(events)
	add := func(name string, rules *lang.EventDescription) {
		cases = append(cases, sharedCase{name, maritime.FullED(rules, scen.Map, scen.Fleet, pairs)})
	}
	add("gold", maritime.GoldED())
	domain := maritime.PromptDomain()
	for _, m := range llm.AllModels() {
		for _, scheme := range []prompt.Scheme{prompt.FewShot, prompt.ChainOfThought} {
			gen, err := prompt.RunPipeline(m, scheme, domain, maritime.CurriculumRequests())
			if err != nil {
				t.Fatal(err)
			}
			label := m.Name() + scheme.Suffix()
			add(label, gen.ED())
			add(label+" corrected", correct.Apply(gen, domain).Gen.ED())
			add(label+" autofixed", correct.AutoFix(gen, domain).Gen.ED())
			if label == "Gemma-2□" {
				add(label+" AreaType renamed", renameVars(gen.ED(), "AreaType", "Kind"))
			}
		}
	}
	swapped := maritime.GoldED().Clone()
	n := len(swapped.Clauses)
	swapped.Clauses[0], swapped.Clauses[n-1] = swapped.Clauses[n-1], swapped.Clauses[0]
	add("gold, first and last clause swapped", swapped)
	return cases, facts, events
}

// recognitionText renders everything a run reports: the CSV, the warnings in
// order, the keys.
func recognitionText(t *testing.T, rec *Recognition) string {
	t.Helper()
	var b bytes.Buffer
	if err := rec.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	for _, w := range rec.Warnings {
		b.WriteString("warning: " + w.String() + "\n")
	}
	b.WriteString(strings.Join(rec.Keys(), "\n"))
	return b.String()
}

// sharedSet is the set with its oracle: what every case reports when run on
// its own, through Run. Built once for the tests that use it.
var sharedSet struct {
	once   sync.Once
	cases  []sharedCase
	facts  []*lang.Term
	events stream.Stream
	fresh  []string
}

func sharedSetWithOracle(t *testing.T) ([]sharedCase, []*lang.Term, stream.Stream, []string) {
	t.Helper()
	s := &sharedSet
	s.once.Do(func() {
		s.cases, s.facts, s.events = sharedCases(t)
		s.fresh = make([]string, len(s.cases))
		for i, c := range s.cases {
			e, err := New(c.ed, Options{ExtraFacts: s.facts})
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			rec, err := e.Run(s.events, RunOptions{Window: 3600})
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			s.fresh[i] = recognitionText(t, rec)
		}
	})
	if len(s.fresh) == 0 {
		t.Fatal("the shared set failed to build in an earlier test")
	}
	return s.cases, s.facts, s.events, s.fresh
}

// TestSharedEqualsFresh: whatever order the event descriptions reach one
// Prepared in — so whichever of them publishes a fluent and whichever
// installs it — each reports exactly what a Run of its own reports, and the
// table is actually used.
func TestSharedEqualsFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 39 event descriptions four times over the 14-vessel scenario")
	}
	cases, facts, events, want := sharedSetWithOracle(t)

	orders := map[string][]int{"as listed": nil, "reversed": nil, "shuffled": nil}
	for i := range cases {
		orders["as listed"] = append(orders["as listed"], i)
		orders["reversed"] = append(orders["reversed"], len(cases)-1-i)
	}
	orders["shuffled"] = rand.New(rand.NewSource(21)).Perm(len(cases))
	for name, order := range orders {
		p, err := Prepare(events, RunOptions{Window: 3600})
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		tel := telemetry.New(reg, nil, nil)
		for _, i := range order {
			e, err := New(cases[i].ed, Options{ExtraFacts: facts, Telemetry: tel})
			if err != nil {
				t.Fatal(err)
			}
			rec, err := e.RunPrepared(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := recognitionText(t, rec); got != want[i] {
				t.Errorf("%s, %s: the shared run differs from a fresh Run:\n%s", name, cases[i].name, firstDiff(got, want[i]))
			}
		}
		snap := reg.Snapshot()
		hits, misses := snap.Counters["rtec.shared.hits"], snap.Counters["rtec.shared.misses"]
		t.Logf("%s: %d hits, %d misses", name, hits, misses)
		if hits == 0 || misses == 0 {
			t.Errorf("%s: %d hits and %d misses: near-copies of one event description must share some fluents and not all", name, hits, misses)
		}
	}
}

// TestDemandClosureMatchesDeps: Demand and New's dependency graph walk rule
// bodies through one helper (ruleReads), so over the shared set the closure
// Demand keeps for any one fluent is, among the fluents New loads, that
// fluent and its transitive dependencies; an engine loaded from what Demand
// returns has exactly those fluents; and Demand gives up (ok false) exactly
// when one of them reads a fluent named only at run time.
func TestDemandClosureMatchesDeps(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 39-event-description shared set")
	}
	cases, facts, _, _ := sharedSetWithOracle(t)
	for _, c := range cases {
		e, err := New(c.ed, Options{ExtraFacts: facts})
		if err != nil {
			t.Fatal(err)
		}
		for _, ind := range e.order {
			root := func(fl *lang.Term) bool { return fl.Indicator() == ind }
			want := append(e.depsClosure(ind), ind)
			named := true
			for _, d := range want {
				named = named && e.fluents[d].namedReads
			}
			closure, ok := demandClosure(c.ed, root)
			if ok != named {
				t.Errorf("%s, %s: Demand ok=%v, but the engine's closure names every read: %v", c.name, ind, ok, named)
				continue
			}
			if !ok {
				continue
			}
			var got []string
			for _, d := range e.order {
				if closure[d] {
					got = append(got, d)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s, %s: Demand's closure %v, New's %v", c.name, ind, got, want)
			}
			// Stratum order may differ: it breaks ties by name among the
			// fluents loaded.
			ed, _ := Demand(c.ed, root)
			de, err := New(ed, Options{ExtraFacts: facts})
			if err != nil {
				t.Fatal(err)
			}
			loaded := de.Fluents()
			sort.Strings(loaded)
			sort.Strings(want)
			if !reflect.DeepEqual(loaded, want) {
				t.Errorf("%s, %s: the demanded event description loads %v, want %v", c.name, ind, loaded, want)
			}
		}
	}
}

// firstDiff renders the first line two texts differ at.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range g {
		if i >= len(w) || g[i] != w[i] {
			return "line " + strings.TrimSpace(strings.Join([]string{" got " + g[i], "want " + append(w, "<end>")[i]}, "\n"))
		}
	}
	return "got is a prefix of want"
}

// TestSharedConcurrent: eight goroutines take the same set through one
// Prepared at once, each starting at a different event description, so they
// race to publish and install the same keys (run with -race).
func TestSharedConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 39 event descriptions over the 14-vessel scenario from 8 goroutines")
	}
	cases, facts, events, want := sharedSetWithOracle(t)
	p, err := Prepare(events, RunOptions{Window: 3600})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Every goroutine covers a stride of the set, starting at its
			// own offset and wrapping into its neighbours' strides.
			for k := 0; k < 2*len(cases)/goroutines; k++ {
				i := (g*len(cases)/goroutines + k) % len(cases)
				e, err := New(cases[i].ed, Options{ExtraFacts: facts})
				if err != nil {
					t.Error(err)
					return
				}
				rec, err := e.RunPrepared(p, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if got := recognitionText(t, rec); got != want[i] {
					t.Errorf("goroutine %d, %s: the shared run differs from a fresh Run:\n%s", g, cases[i].name, firstDiff(got, want[i]))
				}
			}
		}(g)
	}
	wg.Wait()
}

// fingerprintsOf loads src and resolves its fingerprints against table.
func fingerprintsOf(t *testing.T, table *fluentTable, src string, extra ...*lang.Term) map[string]int32 {
	t.Helper()
	ed, err := parser.ParseEventDescription(src)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(ed, Options{ExtraFacts: extra})
	if err != nil {
		t.Fatal(err)
	}
	return table.fingerprints(e)
}

// TestFingerprintSeparates: two event descriptions share a fluent's table
// key only when nothing its evaluation reads differs. Each case changes one
// thing about low/1 (or what it reads); mid/1 reads low/1 and top/1 reads
// mid/1, so all three must separate, while other/1 — which reads none of
// them — must still share unless the background knowledge changed.
func TestFingerprintSeparates(t *testing.T) {
	const base = `
initiatedAt(low(V)=true, T) :-
    happensAt(start(V), T),
    vessel(V).
initiatedAt(low(V)=true, T) :-
    happensAt(restart(V), T).
terminatedAt(low(V)=true, T) :-
    happensAt(stop(V), T).
initiatedAt(mid(V)=true, T) :-
    happensAt(tick(V), T),
    holdsAt(low(V)=true, T),
    not holdsAt(aux(V)=true, T).
terminatedAt(mid(V)=true, T) :-
    happensAt(stop(V), T).
holdsFor(top(V)=true, I) :-
    holdsFor(mid(V)=true, I1),
    union_all([I1], I).
grounding(top(V)) :- vessel(V).
initiatedAt(other(V)=true, T) :-
    happensAt(tick(V), T).
vessel(v1).
`
	const auxDef = `
initiatedAt(aux(V)=true, T) :-
    happensAt(alarm(V), T).
`
	chain := []string{"low/1", "mid/1", "top/1"}
	cases := []struct {
		name     string
		a, b     string
		extraB   []*lang.Term
		separate []string // must not share a key
		share    []string // must share a key
	}{
		{name: "one background fact differs",
			a: base, b: strings.Replace(base, "vessel(v1).", "vessel(v2).", 1),
			separate: append([]string{"other/1"}, chain...)},
		{name: "one ExtraFacts entry differs",
			a: base, b: base, extraB: []*lang.Term{parser.MustParseTerm("vessel(v9)")},
			separate: append([]string{"other/1"}, chain...)},
		{name: "a grounding declaration differs",
			a: base, b: strings.Replace(base, "grounding(top(V)) :- vessel(V).", "grounding(top(V)) :- vessel(V), V \\= v3.", 1),
			separate: []string{"top/1"}, share: []string{"low/1", "mid/1", "other/1"}},
		{name: "two rules of a fluent swap order",
			a: base, b: strings.Replace(strings.Replace(strings.Replace(base,
				"happensAt(start(V), T),\n    vessel(V).", "happensAt(@).", 1),
				"happensAt(restart(V), T).", "happensAt(start(V), T),\n    vessel(V).", 1),
				"happensAt(@).", "happensAt(restart(V), T).", 1),
			separate: chain, share: []string{"other/1"}},
		{name: "a dependency is defined in one and undefined in the other",
			a: base, b: base + auxDef,
			separate: []string{"mid/1", "top/1"}, share: []string{"low/1", "other/1"}},
		{name: "a dependency is dropped as cyclic in one",
			a: base + auxDef, b: base + `
holdsFor(aux(V)=true, I) :-
    holdsFor(aux(V)=true, I1),
    union_all([I1], I).
`,
			separate: []string{"mid/1", "top/1"}, share: []string{"low/1", "other/1"}},
		{name: "a rule is dropped at load by checkSimpleRule",
			a: base, b: strings.Replace(base, "happensAt(restart(V), T).", "vessel(V).", 1),
			separate: chain, share: []string{"other/1"}},
		{name: "clause order of unrelated fluents",
			a: base, b: strings.Replace(base, "initiatedAt(other(V)=true, T) :-\n    happensAt(tick(V), T).\n", "", 1) +
				"initiatedAt(other(V)=true, T) :-\n    happensAt(tick(V), T).\n",
			share: append([]string{"other/1"}, chain...)},
		{name: "variable names",
			a: base, b: strings.ReplaceAll(strings.ReplaceAll(base, "V", "Vessel"), "I1", "Span"),
			share: append([]string{"other/1"}, chain...)},
	}
	for _, c := range cases {
		table := &fluentTable{ids: map[string]int32{}}
		fa := fingerprintsOf(t, table, c.a)
		fb := fingerprintsOf(t, table, c.b, c.extraB...)
		for _, ind := range c.separate {
			if fa[ind] == 0 || fb[ind] == 0 {
				t.Errorf("%s: %s has no fingerprint (%d, %d)", c.name, ind, fa[ind], fb[ind])
			} else if fa[ind] == fb[ind] {
				t.Errorf("%s: %s shares a key", c.name, ind)
			}
		}
		for _, ind := range c.share {
			if fa[ind] == 0 || fa[ind] != fb[ind] {
				t.Errorf("%s: %s does not share a key (%d, %d)", c.name, ind, fa[ind], fb[ind])
			}
		}
	}

	// A condition on a fluent only known at run time can read any fluent's
	// intervals: no fingerprint for its fluent, nor for what reads that one.
	table := &fluentTable{ids: map[string]int32{}}
	fps := fingerprintsOf(t, table, strings.Replace(base, "holdsAt(low(V)=true, T),", "holdsAt(low(V)=true, T),\n    holdsAt(F=true, T),", 1))
	for _, ind := range []string{"mid/1", "top/1"} {
		if fps[ind] != 0 {
			t.Errorf("holdsAt(F=V, T) with a variable F: %s has a fingerprint", ind)
		}
	}
	for _, ind := range []string{"low/1", "other/1"} {
		if fps[ind] == 0 {
			t.Errorf("holdsAt(F=V, T) with a variable F in mid/1: %s lost its fingerprint", ind)
		}
	}
}

// TestSharedWarningsKeepTheirVariableNames: two definitions that differ only
// in what a variable is called share a key, but a recorded result that
// carries warnings prints the publisher's names — the other engine must
// evaluate for itself and report its own.
func TestSharedWarningsKeepTheirVariableNames(t *testing.T) {
	const src = `
initiatedAt(withinArea(Vl, AreaType)=true, T) :-
    happensAt(entersArea(Vl, AreaID), T).
`
	events := stream.Stream{ev(10, "entersArea(v1, a1)"), ev(20, "entersArea(v2, a1)")}
	p, err := Prepare(events, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"AreaType", "Kind", "AreaType"} {
		rec, err := mustEngine(t, strings.ReplaceAll(src, "AreaType", name), Options{}).RunPrepared(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := "withinArea/2: initiatedAt rule derives non-ground FVP withinArea(v1, " + name + "_r)=true; occurrence dropped"
		if len(rec.Warnings) != 2 || rec.Warnings[0].String() != want {
			t.Fatalf("%s: warnings %v, want first %q", name, rec.Warnings, want)
		}
	}
}

// TestSharedBypasses: a run over a table-carrying Prepared consults the
// table in every window, whatever the geometry — tumbling, sliding, or
// tumbling with an end-aligned final window that overlaps its predecessor
// (the testbed's) — so a second engine installs every window the first one
// published. Engines with DisableCache neither read nor feed the table,
// however warm it is; a Prepared over a stream with a non-ground event has
// no table; and the private Prepared of Run and RunWindows has none either.
func TestSharedBypasses(t *testing.T) {
	events := stream.Stream{
		ev(10, "entersArea(v1, a1)"), ev(40, "leavesArea(v1, a1)"),
		ev(60, "entersArea(v1, a2)"), ev(90, "gap_start(v1)"),
		ev(120, "entersArea(v2, a1)"), ev(150, "leavesArea(v2, a1)"),
	}
	// runs runs two engines over p, one after the other, and returns each
	// run's hits and misses. withinAreaED defines one fluent, so a run that
	// consults the table in every window counts one per window.
	runs := func(p *Prepared, opts Options) (first, second [2]int64) {
		t.Helper()
		var out [2][2]int64
		for run := range out {
			reg := telemetry.NewRegistry()
			opts.Strict, opts.Telemetry = true, telemetry.New(reg, nil, nil)
			if _, err := mustEngine(t, withinAreaED, opts).RunPrepared(p, nil); err != nil {
				t.Fatal(err)
			}
			snap := reg.Snapshot()
			out[run] = [2]int64{snap.Counters["rtec.shared.hits"], snap.Counters["rtec.shared.misses"]}
		}
		return out[0], out[1]
	}
	prepared := func(evs stream.Stream, opts RunOptions) *Prepared {
		t.Helper()
		p, err := Prepare(evs, opts)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	// Windows [0, 40), [40, 80), [80, 120) and [110, 150): the last two
	// overlap, as the testbed's do.
	endAligned := RunOptions{Window: 40, Start: 0, End: 150}
	if tl := prepared(events, endAligned).tl; tl.n != 4 || tl.windowStart(3) != 110 {
		t.Fatalf("end-aligned geometry: %d windows, the last from %d; want 4, from 110", tl.n, tl.windowStart(tl.n-1))
	}
	for _, c := range []struct {
		name string
		geom RunOptions
		opts Options
	}{
		{"tumbling windows", RunOptions{Window: 40, Start: 0, End: 160}, Options{}},
		{"sliding windows", RunOptions{Window: 40, Slide: 10, Start: 0, End: 160}, Options{}},
		{"sliding windows without the delta layer", RunOptions{Window: 40, Slide: 10, Start: 0, End: 160}, Options{DisableDelta: true}},
		{"tumbling windows, the final one end-aligned", endAligned, Options{}},
	} {
		p := prepared(events, c.geom)
		n := int64(p.tl.n)
		first, second := runs(p, c.opts)
		if first != [2]int64{0, n} || second != [2]int64{n, 0} {
			t.Errorf("%s: first run %d hits/%d misses, second %d/%d; want 0/%d then %d/0: every window publishes, then installs",
				c.name, first[0], first[1], second[0], second[1], n, n)
		}
	}

	tumbling := prepared(events, RunOptions{Window: 40, Start: 0, End: 160})
	runs(tumbling, Options{})
	if first, second := runs(tumbling, Options{DisableCache: true}); first != [2]int64{} || second != [2]int64{} {
		t.Errorf("DisableCache on a warm Prepared: %v then %v hits/misses, want none", first, second)
	}
	nonGround := append(stream.Stream{{Time: 5, Atom: lang.NewCompound("entersArea", lang.NewAtom("v3"), lang.NewVar("Area"))}}, events...)
	if p := prepared(nonGround, RunOptions{Window: 40}); p.table != nil {
		t.Error("a stream with a non-ground event got a fluent table")
	}
	if p, err := prepare(events, RunOptions{Window: 40}); err != nil || p.table != nil {
		t.Errorf("the private Prepared of Run has a table (err %v)", err)
	}
}

// TestRunPreparedDeliversWindows: RunPrepared is the one batch loop — the
// windows it hands fn and the recognition it returns are RunWindows' and
// Run's.
func TestRunPreparedDeliversWindows(t *testing.T) {
	events := stream.Stream{ev(10, "entersArea(v1, a1)"), ev(70, "leavesArea(v1, a1)"), ev(95, "entersArea(v2, a1)")}
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	opts := RunOptions{Window: 50, Slide: 25}
	var viaRunWindows, viaPrepared []WindowResult
	if err := e.RunWindows(events, opts, func(wr WindowResult) error {
		viaRunWindows = append(viaRunWindows, wr)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(events, opts)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := e.RunPrepared(p, func(wr WindowResult) error {
		viaPrepared = append(viaPrepared, wr)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(viaPrepared) == 0 || !reflect.DeepEqual(viaRunWindows, viaPrepared) {
		t.Fatalf("RunPrepared delivered %d windows, RunWindows %d, or they differ", len(viaPrepared), len(viaRunWindows))
	}
	fresh, err := e.Run(events, opts)
	if err != nil {
		t.Fatal(err)
	}
	if recognitionText(t, rec) != recognitionText(t, fresh) {
		t.Fatal("RunPrepared's recognition differs from Run's")
	}
	empty, err := Prepare(nil, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err = e.RunPrepared(empty, func(WindowResult) error { t.Error("a window over no events"); return nil })
	if err != nil || len(rec.Keys()) != 0 {
		t.Fatalf("empty stream: %v, %v", rec.Keys(), err)
	}
}
