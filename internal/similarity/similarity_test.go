package similarity

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rtecgen/internal/lang"
	"rtecgen/internal/parser"
)

const eps = 1e-9

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-4 }

// TestGroundDistancePaperExample42 reproduces Example 4.2:
// d(happensAt(entersArea(v42,a1),23), happensAt(inArea(v42,a1),23)) = 0.25.
func TestGroundDistancePaperExample42(t *testing.T) {
	e1 := parser.MustParseTerm("happensAt(entersArea(v42, a1), 23)")
	e2 := parser.MustParseTerm("happensAt(inArea(v42, a1), 23)")
	if d := GroundDistance(e1, e2); !approx(d, 0.25) {
		t.Fatalf("d(e1,e2) = %v, want 0.25", d)
	}
}

func TestGroundDistanceBranches(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"a", "a", 0},                             // identical constants
		{"a", "b", 1},                             // different constants
		{"23", "23", 0},                           // identical numbers
		{"23", "23.0", 0},                         // numeric identity across kinds
		{"23", "24", 1},                           // different numbers
		{"f(a)", "g(a)", 1},                       // different functor
		{"f(a)", "f(a, b)", 1},                    // different arity
		{"f(a)", "a", 1},                          // compound vs constant
		{"f(a, b)", "f(a, b)", 0},                 // identical compounds
		{"f(a, b)", "f(a, c)", 0.25},              // one arg off: 1/(2*2)
		{"f(a, b)", "f(c, d)", 0.5},               // both args off: 2/(2*2)
		{"f(g(a))", "f(g(b))", 0.25},              // nested: (1/2)*(1/2)
		{"[a, b]", "[a, b]", 0},                   // lists as expressions
		{"[a, b]", "[a, c]", 0.25},                //
		{"[a]", "[a, b]", 1},                      // length mismatch
		{`"x"`, `"x"`, 0},                         // strings
		{`"x"`, `"y"`, 1},                         //
		{"f(a, b, c, d)", "f(a, b, c, x)", 0.125}, // 1/(2*4)
	}
	for _, c := range cases {
		a := parser.MustParseTerm(c.a)
		b := parser.MustParseTerm(c.b)
		if d := GroundDistance(a, b); !approx(d, c.want) {
			t.Errorf("d(%s, %s) = %v, want %v", c.a, c.b, d, c.want)
		}
	}
}

// TestSetDistancePaperExample46 reproduces Examples 4.4 and 4.6:
// dE = 1/3 * (1 + 0.25) = 0.4167, similarity 0.5833.
func TestSetDistancePaperExample46(t *testing.T) {
	ea := []*lang.Term{
		parser.MustParseTerm("happensAt(entersArea(v42, a1), 23)"),
		parser.MustParseTerm("areaType(a1, fishing)"),
		parser.MustParseTerm("holdsAt(underway(v42)=true, 23)"),
	}
	eb := []*lang.Term{
		parser.MustParseTerm("areaType(a1, fishing)"),
		parser.MustParseTerm("happensAt(inArea(v42, a1), 23)"),
	}
	d, err := SetDistance(ea, eb)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(d, 0.4167) {
		t.Fatalf("dE = %v, want 0.4167", d)
	}
	s, err := SetSimilarity(ea, eb)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(s, 0.5833) {
		t.Fatalf("similarity = %v, want 0.5833", s)
	}
	// The metric orientation is by size, so swapping arguments is identical.
	d2, err := SetDistance(eb, ea)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(d, d2) {
		t.Fatalf("asymmetric set distance: %v vs %v", d, d2)
	}
}

func TestSetDistanceEdgeCases(t *testing.T) {
	d, err := SetDistance(nil, nil)
	if err != nil || d != 0 {
		t.Fatalf("empty sets: %v, %v", d, err)
	}
	one := []*lang.Term{parser.MustParseTerm("a")}
	d, err = SetDistance(one, nil)
	if err != nil || d != 1 {
		t.Fatalf("one vs empty: %v, %v", d, err)
	}
	d, err = SetDistance(one, one)
	if err != nil || d != 0 {
		t.Fatalf("identical singletons: %v, %v", d, err)
	}
}

const rule1Src = `initiatedAt(withinArea(Vl, AreaType)=true, T) :-
    happensAt(entersArea(Vl, AreaID), T),
    areaType(AreaID, AreaType).`

// Rule (6): rule (1) with AreaID renamed to Area. Distance must be 0.
const rule6Src = `initiatedAt(withinArea(Vl, AreaType)=true, T) :-
    happensAt(entersArea(Vl, Area), T),
    areaType(Area, AreaType).`

// Rule (7): rule (1) with the arguments of areaType swapped.
const rule7Src = `initiatedAt(withinArea(Vl, AreaType)=true, T) :-
    happensAt(entersArea(Vl, AreaID), T),
    areaType(AreaType, AreaID).`

// TestRuleDistancePaperExample413 reproduces Example 4.13. The paper
// evaluates the sum 1/3*(0.015625 + 0 + 0.0625 + 0.5); we assert the exact
// value of that expression, 0.19271 (the paper's printed result 0.1667 is an
// arithmetic slip: the shown operands do not sum to 0.5).
func TestRuleDistancePaperExample413(t *testing.T) {
	r1 := parser.MustParseClause(rule1Src)
	r6 := parser.MustParseClause(rule6Src)
	r7 := parser.MustParseClause(rule7Src)

	d16, err := RuleDistance(r1, r6)
	if err != nil {
		t.Fatal(err)
	}
	if d16 != 0 {
		t.Fatalf("dr(r1, r6) = %v, want 0 (renaming invariance)", d16)
	}

	d17, err := RuleDistance(r1, r7)
	if err != nil {
		t.Fatal(err)
	}
	want := (0.015625 + 0 + 0.0625 + 0.5) / 3
	if !approx(d17, want) {
		t.Fatalf("dr(r1, r7) = %v, want %v", d17, want)
	}
	if d17 <= 0 {
		t.Fatal("argument swap must yield a positive distance")
	}
}

func TestRuleDistanceHeadOnly(t *testing.T) {
	a := parser.MustParseClause("vessel(v1).")
	b := parser.MustParseClause("vessel(v1).")
	d, err := RuleDistance(a, b)
	if err != nil || d != 0 {
		t.Fatalf("identical facts: %v, %v", d, err)
	}
	c := parser.MustParseClause("vessel(v2).")
	d, err = RuleDistance(a, c)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(d, 0.5) { // heads f(a) vs f(b): 1/(2*1); M=0 so /1
		t.Fatalf("fact distance = %v, want 0.5", d)
	}
}

func TestRuleDistanceBodySizeMismatchPenalty(t *testing.T) {
	long := parser.MustParseClause(rule1Src)
	short := parser.MustParseClause(`initiatedAt(withinArea(Vl, AreaType)=true, T) :-
	    happensAt(entersArea(Vl, AreaID), T).`)
	d, err := RuleDistance(long, short)
	if err != nil {
		t.Fatal(err)
	}
	// Head: AreaType loses its areaType/2 instance in the short rule, and
	// AreaID likewise differs, so the head and happensAt condition each pay
	// a small variable-concept cost; the unmatched condition pays 1.
	if d <= 1.0/3-eps {
		t.Fatalf("dr = %v, want > 1/3 (unmatched condition + concept drift)", d)
	}
	if d >= 1 {
		t.Fatalf("dr = %v, want < 1", d)
	}
	// Symmetric.
	d2, err := RuleDistance(short, long)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(d, d2) {
		t.Fatalf("rule distance asymmetric: %v vs %v", d, d2)
	}
}

func TestRuleDistanceNegationMatters(t *testing.T) {
	pos := parser.MustParseClause(`initiatedAt(f(X)=true, T) :-
	    happensAt(e(X), T),
	    holdsAt(g(X)=true, T).`)
	neg := parser.MustParseClause(`initiatedAt(f(X)=true, T) :-
	    happensAt(e(X), T),
	    not holdsAt(g(X)=true, T).`)
	d, err := RuleDistance(pos, neg)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatal("negating a condition must increase distance")
	}
}

func TestDistanceEventDescriptions(t *testing.T) {
	edA, err := parser.ParseEventDescription(rule1Src + "\n" + rule6Src)
	if err != nil {
		t.Fatal(err)
	}
	// Same two rules, order swapped and variables renamed: distance 0.
	edB, err := parser.ParseEventDescription(rule6Src + "\n" + rule1Src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := EventDescriptionDistance(edA, edB)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("identical KBs modulo order/renaming: d = %v", d)
	}

	// Missing rule penalty: comparing {r1, r7-ish} against {r1} costs
	// (1/2)*(M-K) = 0.5 plus nothing for the matched rule.
	edC, err := parser.ParseEventDescription(rule1Src)
	if err != nil {
		t.Fatal(err)
	}
	d, err = EventDescriptionDistance(edA, edC)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(d, 0.5) {
		t.Fatalf("missing-rule distance = %v, want 0.5", d)
	}

	s, err := EventDescriptionSimilarity(edA, edC)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(s, 0.5) {
		t.Fatalf("similarity = %v, want 0.5", s)
	}
}

func TestDistanceEmptyKBs(t *testing.T) {
	d, err := Distance(nil, nil)
	if err != nil || d != 0 {
		t.Fatalf("empty KBs: %v, %v", d, err)
	}
	r := []*lang.Clause{parser.MustParseClause(rule1Src)}
	d, err = Distance(r, nil)
	if err != nil || d != 1 {
		t.Fatalf("KB vs empty: %v, %v", d, err)
	}
}

// --- property-based tests -------------------------------------------------

// genGroundTerm builds a random ground term of bounded depth.
func genGroundTerm(r *rand.Rand, depth int) *lang.Term {
	if depth == 0 || r.Intn(3) == 0 {
		switch r.Intn(3) {
		case 0:
			return lang.NewAtom(string(rune('a' + r.Intn(4))))
		case 1:
			return lang.NewInt(int64(r.Intn(5)))
		default:
			return lang.NewAtom("c")
		}
	}
	k := 1 + r.Intn(3)
	args := make([]*lang.Term, k)
	for i := range args {
		args[i] = genGroundTerm(r, depth-1)
	}
	return lang.NewCompound(string(rune('f'+r.Intn(3))), args...)
}

func TestPropGroundDistanceMetricAxioms(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := genGroundTerm(r, 3)
		b := genGroundTerm(r, 3)
		d := GroundDistance(a, b)
		if d < 0 || d > 1 {
			return false
		}
		if GroundDistance(a, a) != 0 {
			return false
		}
		return math.Abs(GroundDistance(a, b)-GroundDistance(b, a)) < eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropSetDistanceRange(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		na, nb := r.Intn(5), r.Intn(5)
		ea := make([]*lang.Term, na)
		for i := range ea {
			ea[i] = genGroundTerm(r, 2)
		}
		eb := make([]*lang.Term, nb)
		for i := range eb {
			eb[i] = genGroundTerm(r, 2)
		}
		d, err := SetDistance(ea, eb)
		if err != nil || d < -eps || d > 1+eps {
			return false
		}
		dSelf, err := SetDistance(ea, ea)
		if err != nil || math.Abs(dSelf) > eps {
			return false
		}
		dSym, err := SetDistance(eb, ea)
		return err == nil && math.Abs(d-dSym) < eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropRuleRenamingInvariance(t *testing.T) {
	rules := []*lang.Clause{
		parser.MustParseClause(rule1Src),
		parser.MustParseClause(rule7Src),
		parser.MustParseClause(`holdsFor(underWay(Vessel)=true, I) :-
		    holdsFor(movingSpeed(Vessel)=below, I1),
		    holdsFor(movingSpeed(Vessel)=normal, I2),
		    union_all([I1, I2], I).`),
	}
	for _, r := range rules {
		var vt lang.VarTable
		renamed := vt.NumberApart(r, "Renamed")
		d, err := RuleDistance(r, renamed)
		if err != nil {
			t.Fatal(err)
		}
		if d != 0 {
			t.Fatalf("renaming changed distance for %s: %v", r.Head, d)
		}
	}
}

func TestPropEventDescriptionSelfSimilarityOne(t *testing.T) {
	ed, err := parser.ParseEventDescription(rule1Src + "\n" + rule6Src + "\n" + rule7Src)
	if err != nil {
		t.Fatal(err)
	}
	s, err := EventDescriptionSimilarity(ed, ed.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if s != 1 {
		t.Fatalf("self similarity = %v, want 1", s)
	}
}

// TestPropDistanceSymmetric: the event-description distance is symmetric by
// construction (orientation is chosen by size).
func TestPropDistanceSymmetric(t *testing.T) {
	pool := []*lang.Clause{
		parser.MustParseClause(rule1Src),
		parser.MustParseClause(rule6Src),
		parser.MustParseClause(rule7Src),
		parser.MustParseClause(`holdsFor(underWay(V)=true, I) :-
		    holdsFor(movingSpeed(V)=below, I1),
		    union_all([I1], I).`),
		parser.MustParseClause(`terminatedAt(withinArea(Vl, AreaType)=true, T) :-
		    happensAt(gap_start(Vl), T).`),
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pick := func() []*lang.Clause {
			n := r.Intn(len(pool) + 1)
			out := make([]*lang.Clause, 0, n)
			for i := 0; i < n; i++ {
				out = append(out, pool[r.Intn(len(pool))])
			}
			return out
		}
		a, b := pick(), pick()
		d1, err1 := Distance(a, b)
		d2, err2 := Distance(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(d1-d2) < eps && d1 >= -eps && d1 <= 1+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
