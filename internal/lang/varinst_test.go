package lang

import "testing"

// rule1 builds rule (1) of the paper:
//
//	initiatedAt(withinArea(Vl,AreaType)=true, T) :-
//	    happensAt(entersArea(Vl,AreaID), T),
//	    areaType(AreaID,AreaType).
func rule1() *Clause {
	return &Clause{
		Head: NewCompound("initiatedAt",
			FVP(NewCompound("withinArea", NewVar("Vl"), NewVar("AreaType")), NewAtom("true")),
			NewVar("T")),
		Body: []Literal{
			Pos(NewCompound("happensAt", NewCompound("entersArea", NewVar("Vl"), NewVar("AreaID")), NewVar("T"))),
			Pos(NewCompound("areaType", NewVar("AreaID"), NewVar("AreaType"))),
		},
	}
}

// TestInstancesOfRulePaperExample410 checks the variable-instance lists of
// rule (1) against the paper's Example 4.10 verbatim.
func TestInstancesOfRulePaperExample410(t *testing.T) {
	vi := InstancesOfRule(rule1())

	wantVl := []string{
		"[(happensAt,1), (entersArea,1)]",
		"[(initiatedAt,1), (=,1), (withinArea,1)]",
	}
	checkInstances(t, vi, "Vl", wantVl)

	wantAreaType := []string{
		"[(areaType,2)]",
		"[(initiatedAt,1), (=,1), (withinArea,2)]",
	}
	checkInstances(t, vi, "AreaType", wantAreaType)

	wantAreaID := []string{
		"[(areaType,1)]",
		"[(happensAt,1), (entersArea,2)]",
	}
	checkInstances(t, vi, "AreaID", wantAreaID)

	wantT := []string{
		"[(happensAt,2)]",
		"[(initiatedAt,2)]",
	}
	checkInstances(t, vi, "T", wantT)
}

func checkInstances(t *testing.T, vi VarInstances, v string, want []string) {
	t.Helper()
	got := vi[v]
	if len(got) != len(want) {
		t.Fatalf("%s: %d instances %v, want %d %v", v, len(got), got, len(want), want)
	}
	for i := range want {
		if got[i].String() != want[i] {
			t.Errorf("%s instance %d = %s, want %s", v, i, got[i], want[i])
		}
	}
}

// TestSameConceptRenamingInvariance follows Example 4.13: renaming AreaID to
// Area leaves the instance lists identical, so the two variables denote the
// same concept across the two rules.
func TestSameConceptRenamingInvariance(t *testing.T) {
	r1 := rule1()
	// Rename AreaID -> Area in r6 by rebuilding.
	r6 := renameClauseVar(r1, "AreaID", "Area")
	vi1 := InstancesOfRule(r1)
	vi6 := InstancesOfRule(r6)
	if !SameConcept(vi1, "AreaID", vi6, "Area") {
		t.Fatal("renamed variable must denote the same concept")
	}
	if !SameConcept(vi1, "Vl", vi6, "Vl") {
		t.Fatal("untouched variable must denote the same concept")
	}
	if SameConcept(vi1, "Vl", vi6, "Area") {
		t.Fatal("different variables reported as same concept")
	}
}

// TestSameConceptArgumentSwap follows rule (7) of the paper: swapping the
// arguments of areaType changes the instance lists of AreaType and AreaID.
func TestSameConceptArgumentSwap(t *testing.T) {
	r1 := rule1()
	r7 := rule1()
	cond := r7.Body[1].Atom
	r7.Body[1] = Pos(NewCompound("areaType", cond.Args[1], cond.Args[0]))
	vi1 := InstancesOfRule(r1)
	vi7 := InstancesOfRule(r7)
	if SameConcept(vi1, "AreaType", vi7, "AreaType") {
		t.Fatal("AreaType concept must differ after argument swap")
	}
	if SameConcept(vi1, "AreaID", vi7, "AreaID") {
		t.Fatal("AreaID concept must differ after argument swap")
	}
	if !SameConcept(vi1, "Vl", vi7, "Vl") {
		t.Fatal("Vl is unaffected by the swap")
	}
}

func renameClauseVar(c *Clause, from, to string) *Clause {
	var ren func(t *Term) *Term
	ren = func(t *Term) *Term {
		if t.Kind == Var && t.Functor == from {
			return NewVar(to)
		}
		if len(t.Args) == 0 {
			return t
		}
		args := make([]*Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = ren(a)
		}
		n := *t
		n.Args = args
		return &n
	}
	out := &Clause{Head: ren(c.Head)}
	for _, l := range c.Body {
		out.Body = append(out.Body, Literal{Neg: l.Neg, Atom: ren(l.Atom)})
	}
	return out
}

func TestNegationAffectsInstances(t *testing.T) {
	pos := &Clause{Head: NewCompound("p", NewVar("X")),
		Body: []Literal{Pos(NewCompound("q", NewVar("X")))}}
	neg := &Clause{Head: NewCompound("p", NewVar("X")),
		Body: []Literal{Neg(NewCompound("q", NewVar("X")))}}
	vip, vin := InstancesOfRule(pos), InstancesOfRule(neg)
	if SameConcept(vip, "X", vin, "X") {
		t.Fatal("occurrence under negation must be a distinct instance")
	}
}

func TestInstancesOfExpr(t *testing.T) {
	e := NewCompound("happensAt", NewCompound("gap_start", NewVar("Vl")), NewVar("T"))
	vi := InstancesOfExpr(e)
	checkInstances(t, vi, "Vl", []string{"[(happensAt,1), (gap_start,1)]"})
	checkInstances(t, vi, "T", []string{"[(happensAt,2)]"})
}
