package kb

import (
	"strings"
	"testing"

	"rtecgen/internal/lang"
	"rtecgen/internal/parser"
)

func mustKB(t *testing.T, src string, extra ...*lang.Term) *KB {
	t.Helper()
	ed, err := parser.ParseEventDescription(src)
	if err != nil {
		t.Fatal(err)
	}
	k, err := FromEventDescription(ed, extra...)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// goal parses a term, numbers its variables and returns it with a binding
// store sized for them.
func goal(src string) (*lang.Term, *lang.Bindings) {
	var vt lang.VarTable
	g := vt.Number(parser.MustParseTerm(src))
	b := &lang.Bindings{}
	b.Reset(vt.Len())
	return g, b
}

// matches returns, in enumeration order, the goal as resolved by every
// answer Match hands out, and checks each extension is undone afterwards.
func matches(t *testing.T, k *KB, src string) []string {
	t.Helper()
	g, b := goal(src)
	var out []string
	k.Match(g, b, func() { out = append(out, b.Resolve(g).String()) })
	if b.Mark() != 0 {
		t.Fatalf("Match(%s) left %d bindings behind", src, b.Mark())
	}
	return out
}

// answers runs the body of a parsed clause as a query and returns the
// clause head as resolved by every answer.
func answers(k *KB, src string) ([]string, error) {
	var vt lang.VarTable
	c := vt.NumberClause(parser.MustParseClause(src))
	var b lang.Bindings
	b.Reset(vt.Len())
	var out []string
	err := k.Query(c.Body, &b, func() { out = append(out, b.Resolve(c.Head).String()) })
	return out, err
}

func TestAddFactValidation(t *testing.T) {
	k := New()
	if err := k.AddFact(parser.MustParseTerm("areaType(a1, fishing)")); err != nil {
		t.Fatal(err)
	}
	if err := k.AddFact(parser.MustParseTerm("areaType(a1, fishing)")); err != nil {
		t.Fatal(err)
	}
	if k.Size() != 1 {
		t.Fatalf("Size = %d, want 1 (dedup)", k.Size())
	}
	if err := k.AddFact(parser.MustParseTerm("areaType(X, fishing)")); err == nil {
		t.Fatal("non-ground fact accepted")
	}
	if err := k.AddFact(parser.MustParseTerm("42")); err == nil {
		t.Fatal("non-callable fact accepted")
	}
	if !k.Has(parser.MustParseTerm("areaType(a1, fishing)")) {
		t.Fatal("Has() = false for stored fact")
	}
}

func TestMatch(t *testing.T) {
	k := mustKB(t, `
areaType(a1, fishing).
areaType(a2, anchorage).
areaType(a3, fishing).
`)
	got := matches(t, k, "areaType(A, fishing)")
	if len(got) != 2 {
		t.Fatalf("matches = %d, want 2", len(got))
	}
	got = matches(t, k, "areaType(a2, T)")
	if len(got) != 1 || got[0] != "areaType(a2, anchorage)" {
		t.Fatalf("bound match wrong: %v", got)
	}
	if got := matches(t, k, "noSuch(X)"); len(got) != 0 {
		t.Fatalf("match on unknown predicate = %d", len(got))
	}
}

// TestMatchOrder pins the enumeration order, which the engine's act and
// warning order — and so its output bytes — depend on: facts come in
// insertion order, whether the goal goes through the first-argument index
// (ground first argument, also when it is ground only through a binding) or
// scans the predicate's facts.
func TestMatchOrder(t *testing.T) {
	k := mustKB(t, `
areaType(a2, anchorage).
areaType(a1, fishing).
areaType(a2, natura).
areaType(a3, fishing).
areaType(a2, fishing).
speedLimit(5, slow).
speedLimit(5.0, slower).
`)
	for _, c := range []struct{ goal, want string }{
		{"areaType(A, fishing)", "areaType(a1, fishing) areaType(a3, fishing) areaType(a2, fishing)"},
		{"areaType(a2, T)", "areaType(a2, anchorage) areaType(a2, natura) areaType(a2, fishing)"},
		{"areaType(A, T)", "areaType(a2, anchorage) areaType(a1, fishing) areaType(a2, natura) areaType(a3, fishing) areaType(a2, fishing)"},
		// The index keys a number by value: 5 finds 5.0, as Unify has it.
		{"speedLimit(5, L)", "speedLimit(5, slow) speedLimit(5, slower)"},
		{"speedLimit(X, L)", "speedLimit(5, slow) speedLimit(5.0, slower)"},
	} {
		if got := strings.Join(matches(t, k, c.goal), " "); got != c.want {
			t.Errorf("Match(%s) =\n  %s, want\n  %s", c.goal, got, c.want)
		}
	}
	// A first argument bound earlier in the store selects the same index entry.
	g, b := goal("areaType(A, T)")
	b.Unify(g.Args[0], lang.NewAtom("a2"))
	var got []string
	k.Match(g, b, func() { got = append(got, b.Resolve(g.Args[1]).String()) })
	if strings.Join(got, " ") != "anchorage natura fishing" || b.Mark() != 1 {
		t.Fatalf("bound-first-argument match = %v (mark %d)", got, b.Mark())
	}
}

// TestMatchNumericFirstArgument: a numeric first argument finds the facts
// whose first argument unifies with it, whichever of int and float either
// side is written as — as written in the goal, bound at run time, or through
// a Lookup made for the goal. (The string-keyed index answered nothing for
// limit(5, X) and limit(7.0, X).)
func TestMatchNumericFirstArgument(t *testing.T) {
	k := mustKB(t, "limit(5.0, slow).\nlimit(7, fast).\n")
	for _, c := range []struct{ goal, want string }{
		{"limit(5, X)", "slow"},
		{"limit(7.0, X)", "fast"},
		{"limit(5.0, X)", "slow"},
		{"limit(Y, X)", "slow fast"},
		{"limit(6, X)", ""},
	} {
		g, b := goal(c.goal)
		var got []string
		k.Match(g, b, func() { got = append(got, b.Resolve(g.Args[1]).String()) })
		l := k.Lookup(g)
		var compiled []string
		l.Match(g, b, func() { compiled = append(compiled, b.Resolve(g.Args[1]).String()) })
		if s := strings.Join(got, " "); s != c.want {
			t.Errorf("Match(%s) = %q, want %q", c.goal, s, c.want)
		}
		if s := strings.Join(compiled, " "); s != c.want {
			t.Errorf("Lookup(%s).Match = %q, want %q", c.goal, s, c.want)
		}
	}
	for _, n := range []*lang.Term{lang.NewInt(5), lang.NewFloat(7)} {
		g, b := goal("limit(N, X)")
		l := k.Lookup(g)
		b.Unify(g.Args[0], n)
		var got []string
		l.Match(g, b, func() { got = append(got, b.Resolve(g.Args[1]).String()) })
		if len(got) != 1 {
			t.Errorf("limit(N, X) with N = %s bound at run time: %v, want one answer", n, got)
		}
	}
}

func TestQueryConjunctionAndNegation(t *testing.T) {
	k := mustKB(t, `
vessel(v1).
vessel(v2).
vesselType(v1, tug).
vesselType(v2, fishingVessel).
`)
	got, err := answers(k, "q(V) :- vessel(V), not vesselType(V, tug).")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "q(v2)" {
		t.Fatalf("answers = %v, want [q(v2)]", got)
	}
}

func TestQueryComparisons(t *testing.T) {
	k := mustKB(t, `
thresholds(hcNearCoastMax, 5).
thresholds(trawlSpeedMin, 1).
`)
	substs, err := answers(k, "q :- thresholds(hcNearCoastMax, Max), 7 > Max.")
	if err != nil {
		t.Fatal(err)
	}
	if len(substs) != 1 {
		t.Fatal("7 > 5 should succeed")
	}
	substs, err = answers(k, "q :- thresholds(hcNearCoastMax, Max), 3 > Max.")
	if err != nil {
		t.Fatal(err)
	}
	if len(substs) != 0 {
		t.Fatal("3 > 5 should fail")
	}
	// Arithmetic inside comparisons.
	substs, err = answers(k, "q :- thresholds(hcNearCoastMax, M), thresholds(trawlSpeedMin, L), M + L =:= 6.")
	if err != nil || len(substs) != 1 {
		t.Fatalf("arith comparison: %v, %v", substs, err)
	}
	// Unbound comparison operand is an error, whose text names the variable.
	if _, err = answers(k, "q :- X > 3."); err == nil || err.Error() != "kb: >: kb: X is not an arithmetic expression" {
		t.Fatalf("unbound comparison: err = %v", err)
	}
	// An error on a later branch surfaces after the earlier branches'
	// answers were handed out: the caller is told to discard them.
	got, err := answers(k, "q(N) :- thresholds(N, V), 10 / (V - 1) > 0.")
	if err == nil || len(got) != 1 || got[0] != "q(hcNearCoastMax)" {
		t.Fatalf("late error: answers %v, err %v", got, err)
	}
}

func TestMaterializeDerivedFacts(t *testing.T) {
	k := mustKB(t, `
vessel(v1).
vessel(v2).
vessel(v3).
vesselType(v1, tug).
oneIsTug(V1, V2) :- vesselType(V1, tug), vessel(V2), V1 \= V2.
oneIsTug(V1, V2) :- vesselType(V2, tug), vessel(V1), V1 \= V2.
`)
	if !k.Has(parser.MustParseTerm("oneIsTug(v1, v2)")) {
		t.Fatal("missing oneIsTug(v1, v2)")
	}
	if !k.Has(parser.MustParseTerm("oneIsTug(v3, v1)")) {
		t.Fatal("missing oneIsTug(v3, v1)")
	}
	if k.Has(parser.MustParseTerm("oneIsTug(v1, v1)")) {
		t.Fatal("oneIsTug(v1, v1) should be excluded by \\=")
	}
	if k.Has(parser.MustParseTerm("oneIsTug(v2, v3)")) {
		t.Fatal("neither v2 nor v3 is a tug")
	}
}

func TestMaterializeChainedRules(t *testing.T) {
	k := mustKB(t, `
edge(a, b).
edge(b, c).
edge(c, d).
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
`)
	for _, f := range []string{"path(a, b)", "path(a, c)", "path(a, d)", "path(b, d)"} {
		if !k.Has(parser.MustParseTerm(f)) {
			t.Fatalf("missing %s", f)
		}
	}
	if k.Has(parser.MustParseTerm("path(d, a)")) {
		t.Fatal("wrong direction derived")
	}
}

func TestMaterializeNonGroundHeadFails(t *testing.T) {
	ed, err := parser.ParseEventDescription(`
vessel(v1).
bad(X, Y) :- vessel(X).
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromEventDescription(ed); err == nil {
		t.Fatal("non-ground derived head must fail materialisation")
	} else if !strings.Contains(err.Error(), "non-ground") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestFromEventDescriptionSkipsGroundingRules(t *testing.T) {
	k := mustKB(t, `
vessel(v1).
grounding(underWay(Vl)) :- vessel(Vl).
`)
	if k.Has(parser.MustParseTerm("grounding(underWay(v1))")) {
		t.Fatal("grounding declarations must not be materialised as facts")
	}
}

func TestExtraFacts(t *testing.T) {
	ed, err := parser.ParseEventDescription("areaType(a1, fishing).")
	if err != nil {
		t.Fatal(err)
	}
	k, err := FromEventDescription(ed, parser.MustParseTerm("vessel(v9)"))
	if err != nil {
		t.Fatal(err)
	}
	if !k.Has(parser.MustParseTerm("vessel(v9)")) {
		t.Fatal("extra fact missing")
	}
}

func TestIndicators(t *testing.T) {
	k := mustKB(t, `
vessel(v1).
areaType(a1, fishing).
`)
	inds := k.Indicators()
	if len(inds) != 2 || inds[0] != "areaType/2" || inds[1] != "vessel/1" {
		t.Fatalf("Indicators = %v", inds)
	}
}

// TestAppendText: the canonical text is the facts in insertion order — the
// order Match answers in — so it separates two KBs holding the same facts in
// a different order, ignores re-added duplicates, and cannot be confused by
// a fact whose text contains what looks like a boundary.
func TestAppendText(t *testing.T) {
	text := func(src string) string { return string(mustKB(t, src).AppendText(nil)) }
	ab := text("areaType(a1, fishing).\nareaType(a2, natura).\n")
	if want := "21:areaType(a1, fishing)20:areaType(a2, natura)"; ab != want {
		t.Fatalf("AppendText = %q, want %q", ab, want)
	}
	if ba := text("areaType(a2, natura).\nareaType(a1, fishing).\n"); ba == ab {
		t.Error("the same facts in another order have the same text")
	}
	if dup := text("areaType(a1, fishing).\nareaType(a2, natura).\nareaType(a1, fishing).\n"); dup != ab {
		t.Errorf("a re-added fact changed the text: %q", dup)
	}
	if one, two := text(`note("a)4:p(b").`+"\n"), text("note(a).\np(b).\n"); one == two {
		t.Errorf("a fact containing a boundary reads as two facts: %q", one)
	}
}
