package llm

import (
	"math/rand"
	"strings"
	"testing"

	"rtecgen/internal/lang"
	"rtecgen/internal/parser"
)

func parseRules(t *testing.T, src string) []*lang.Clause {
	t.Helper()
	ed, err := parser.ParseEventDescription(src)
	if err != nil {
		t.Fatal(err)
	}
	return ed.Clauses
}

const tugRuleSrc = `
holdsFor(tugging(V1, V2)=true, I) :-
    oneIsTug(V1, V2),
    holdsFor(proximity(V1, V2)=true, Ip),
    holdsFor(tuggingSpeed(V1)=true, I1),
    holdsFor(tuggingSpeed(V2)=true, I2),
    intersect_all([Ip, I1, I2], I).
`

func TestRenameName(t *testing.T) {
	cs := parseRules(t, `
initiatedAt(withinArea(Vl, AreaType)=true, T) :-
    happensAt(entersArea(Vl, AreaID), T),
    areaType(AreaID, fishing).
`)
	renameName(cs, "entersArea", "inArea")
	if !strings.Contains(cs[0].String(), "inArea(") {
		t.Fatal("predicate rename failed")
	}
	renameName(cs, "fishing", "trawlingArea")
	if !strings.Contains(cs[0].String(), "trawlingArea") {
		t.Fatal("constant rename failed")
	}
	// Head fluents rename too with renameName.
	renameName(cs, "withinArea", "inRegion")
	if !strings.Contains(cs[0].Head.String(), "inRegion") {
		t.Fatal("head rename failed")
	}
}

func TestRenameInBodiesLeavesHeads(t *testing.T) {
	cs := parseRules(t, `
initiatedAt(f(X)=true, T) :-
    happensAt(f(X), T).
`)
	renameInBodies(cs, "f", "g")
	if cs[0].Head.String() != "initiatedAt(f(X)=true, T)" {
		t.Fatalf("head changed: %s", cs[0].Head)
	}
	if cs[0].Body[0].Atom.String() != "happensAt(g(X), T)" {
		t.Fatalf("body not renamed: %s", cs[0].Body[0].Atom)
	}
}

func TestDropGapTermination(t *testing.T) {
	cs := parseRules(t, `
initiatedAt(f(X)=true, T) :- happensAt(e(X), T).
terminatedAt(f(X)=true, T) :- happensAt(e2(X), T).
terminatedAt(f(X)=true, T) :- happensAt(gap_start(X), T).
`)
	out, dropped := dropGapTermination(cs)
	if !dropped || len(out) != 2 {
		t.Fatalf("dropped=%v len=%d", dropped, len(out))
	}
	for _, c := range out {
		if strings.Contains(c.String(), "gap_start") {
			t.Fatal("gap termination not dropped")
		}
	}
	// With a single termination nothing is dropped.
	out2, dropped2 := dropGapTermination(out)
	if dropped2 || len(out2) != 2 {
		t.Fatal("surplus-free rule set must be untouched")
	}
}

func TestSwapIntervalOp(t *testing.T) {
	cs := parseRules(t, tugRuleSrc)
	if !swapIntervalOp(cs, "tugging") {
		t.Fatal("swap failed")
	}
	if !strings.Contains(cs[0].String(), "union_all([Ip, I1, I2], I)") {
		t.Fatalf("intersect not swapped: %s", cs[0])
	}
	if swapIntervalOp(cs, "nosuch") {
		t.Fatal("swap on unknown fluent succeeded")
	}
}

func TestAddRedundantIntersect(t *testing.T) {
	cs := parseRules(t, tugRuleSrc)
	if !addRedundantIntersect(cs, "tugging") {
		t.Fatal("addRedundantIntersect failed")
	}
	s := cs[0].String()
	if !strings.Contains(s, "holdsFor(underWay(V1)=true, Iuw)") {
		t.Fatalf("redundant condition missing:\n%s", s)
	}
	if !strings.Contains(s, "intersect_all([Ip, I1, I2, Iuw], I)") {
		t.Fatalf("intersect list not extended:\n%s", s)
	}
	// Reparse to confirm validity.
	if _, err := parser.ParseClause(s); err != nil {
		t.Fatalf("mutated rule unparseable: %v", err)
	}
}

func TestAddRedundantIntersectSkipsUnderWay(t *testing.T) {
	cs := parseRules(t, `
holdsFor(underWay(Vl)=true, I) :-
    holdsFor(movingSpeed(Vl)=normal, I1),
    union_all([I1], I).
`)
	if addRedundantIntersect(cs, "underWay") {
		t.Fatal("must not add underWay to its own definition")
	}
}

func TestDropSDConditions(t *testing.T) {
	cs := parseRules(t, tugRuleSrc)
	rng := rand.New(rand.NewSource(1))
	dropSDConditions(rng, cs, 1.0)
	s := cs[0].String()
	// One holdsFor condition gone, and its variable removed from the list.
	holdsForCount := strings.Count(s, "holdsFor(")
	if holdsForCount != 3 { // head + 2 remaining conditions
		t.Fatalf("holdsFor count = %d:\n%s", holdsForCount, s)
	}
	if _, err := parser.ParseClause(s); err != nil {
		t.Fatalf("mutated rule unparseable: %v", err)
	}
	if strings.Contains(s, "intersect_all([Ip, I1, I2], I)") {
		t.Fatal("construct list not shrunk")
	}
}

func TestDropSDConditionsPreservesComplementBase(t *testing.T) {
	cs := parseRules(t, `
holdsFor(loitering(Vl)=true, I) :-
    holdsFor(lowSpeed(Vl)=true, Il),
    union_all([Il], Iu),
    holdsFor(withinArea(Vl, nearPorts)=true, Ip),
    relative_complement_all(Iu, [Ip], I).
`)
	rng := rand.New(rand.NewSource(1))
	dropSDConditions(rng, cs, 1.0)
	s := cs[0].String()
	// Il is the only member of the union list and Iu is a complement base:
	// only the Ip condition is safely droppable.
	if strings.Contains(s, "withinArea") {
		t.Fatalf("expected the withinArea condition to be dropped:\n%s", s)
	}
	if !strings.Contains(s, "lowSpeed") {
		t.Fatalf("lowSpeed condition must survive:\n%s", s)
	}
	if _, err := parser.ParseClause(s); err != nil {
		t.Fatalf("mutated rule unparseable: %v", err)
	}
}

func TestUndefineReferences(t *testing.T) {
	cs := parseRules(t, `
initiatedAt(drifting(Vl)=true, T) :-
    happensAt(velocity(Vl, S, C, H), T),
    holdsAt(underWay(Vl)=true, T).
`)
	rng := rand.New(rand.NewSource(1))
	undefineReferences(rng, cs, map[string]bool{"drifting": true}, 1.0)
	if !strings.Contains(cs[0].String(), "underWayState") {
		t.Fatalf("reference not hallucinated:\n%s", cs[0])
	}
}

func TestSwapOpsAll(t *testing.T) {
	cs := parseRules(t, `
holdsFor(f(X)=true, I) :-
    holdsFor(a(X)=true, I1),
    holdsFor(b(X)=true, I2),
    union_all([I1, I2], Iu),
    intersect_all([Iu, I1], I).
`)
	rng := rand.New(rand.NewSource(1))
	swapOpsAll(rng, cs, 1.0)
	s := cs[0].String()
	if !strings.Contains(s, "intersect_all([I1, I2], Iu)") || !strings.Contains(s, "union_all([Iu, I1], I)") {
		t.Fatalf("ops not all swapped:\n%s", s)
	}
}

func TestCorruptSyntaxBreaksParsing(t *testing.T) {
	good := "initiatedAt(f(X)=true, T) :-\n    happensAt(e(X), T)."
	bad := corruptSyntax(good)
	if bad == good {
		t.Fatal("corruptSyntax changed nothing")
	}
	if _, err := parser.ParseClause(bad); err == nil {
		t.Fatal("corrupted rule still parses")
	}
}

func TestDropConditionsKeepsAnchor(t *testing.T) {
	cs := parseRules(t, `
initiatedAt(f(X)=true, T) :-
    happensAt(e(X), T),
    cond1(X),
    cond2(X).
`)
	rng := rand.New(rand.NewSource(2))
	dropConditions(rng, cs, 1.0)
	if len(cs[0].Body) != 2 {
		t.Fatalf("body = %d conditions, want 2", len(cs[0].Body))
	}
	if cs[0].Body[0].Atom.Functor != "happensAt" {
		t.Fatal("anchor dropped")
	}
}

// rulesText renders a rule list.
func rulesText(cs []*lang.Clause) string {
	var b strings.Builder
	for _, c := range cs {
		b.WriteString(c.String())
		b.WriteString("\n")
	}
	return b.String()
}

// TestPerturbations: every exported operator, at full rate over the maritime
// knowledge, turns the gold rules into a different rule set that still prints
// and parses, says so, does it reproducibly per seed, and leaves the
// knowledge's own clauses alone; at rate zero the generic ones do nothing and
// say that.
func TestPerturbations(t *testing.T) {
	k := MaritimeKnowledge()
	intended := func() string {
		var b strings.Builder
		for _, act := range k.Activities {
			b.WriteString(rulesText(act.Clauses))
		}
		return b.String()
	}
	gold := intended()
	full := Rates{Rename: 1, ValueName: 1, Drop: 1, Undefined: 1, OpSwap: 1, Extra: 1}
	ops := append(Perturbations(full), SwapIntervalOp(), AddRedundantIntersect(),
		Rename("thresholds", "limits", true), Rename("gap", "silence", false))
	names := map[string]bool{}
	for _, p := range ops {
		names[p.Name] = true
		a, b := rulesText(k.Perturbed(p, 3)), rulesText(k.Perturbed(p, 3))
		if a != b {
			t.Errorf("%s: two applications at one seed differ", p.Name)
		}
		if a == gold {
			t.Errorf("%s: at full rate the gold rules came out unchanged", p.Name)
		}
		if _, err := parser.ParseEventDescription(a); err != nil {
			t.Errorf("%s: the perturbed rules do not parse back: %v", p.Name, err)
		}
		changed := false
		for _, act := range k.Activities {
			before := rulesText(act.Clauses)
			out, ch := p.Apply(rand.New(rand.NewSource(3)), cloneClauses(act.Clauses), act.Primary)
			if ch != (rulesText(out) != before) {
				t.Errorf("%s on %s: changed = %v, but the rules say otherwise", p.Name, act.Key, ch)
			}
			changed = changed || ch
		}
		if !changed {
			t.Errorf("%s: reports no change on any activity", p.Name)
		}
	}
	if len(names) != 9 { // six generic, two aimed at the primary definition, one rename
		t.Errorf("operator names %v, want 9 distinct", names)
	}
	if rulesText(k.Perturbed(Perturbations(full)[1], 3)) == rulesText(k.Perturbed(Perturbations(full)[1], 4)) {
		t.Error("dropConditions drops the same conditions at seeds 3 and 4")
	}
	if intended() != gold {
		t.Error("applying operators edited the knowledge's own clauses")
	}
	for _, p := range Perturbations(Rates{}) {
		for _, act := range k.Activities {
			before := rulesText(act.Clauses)
			if out, ch := p.Apply(rand.New(rand.NewSource(3)), cloneClauses(act.Clauses), act.Primary); ch || rulesText(out) != before {
				t.Errorf("%s at rate 0 edits %s", p.Name, act.Key)
			}
		}
	}
}
