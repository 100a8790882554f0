package similarity

import (
	"fmt"
	"math"
	"testing"

	"rtecgen/internal/correct"
	"rtecgen/internal/hungarian"
	"rtecgen/internal/lang"
	"rtecgen/internal/llm"
	"rtecgen/internal/maritime"
	"rtecgen/internal/prompt"
)

// naive is the oracle of the differential test: Definitions 4.12 and 4.14
// computed pair by pair with nothing prepared and nothing reused — instance
// lists derived per pair, a fresh matrix and a fresh hungarian.Solve per
// assignment. So that the test finishes, a rule pair's value is remembered
// by the identity of its two clauses (never by their text, which is what
// Reference keys on).
type naive struct {
	t     *testing.T
	pairs map[[2]*lang.Clause]float64
}

func (o naive) ruleDistance(r1, r2 *lang.Clause) float64 {
	pair := [2]*lang.Clause{r1, r2}
	if d, ok := o.pairs[pair]; ok {
		return d
	}
	via, vib := lang.InstancesOfRule(r1), lang.InstancesOfRule(r2)
	if len(r1.Body) < len(r2.Body) {
		r1, r2 = r2, r1
		via, vib = vib, via
	}
	m, k := len(r1.Body), len(r2.Body)
	d := ExprDistance(r1.Head, r2.Head, via, vib)
	if m > 0 {
		total := o.assign(m, k, func(i, j int) float64 {
			return ExprDistance(r1.Body[i].Term(), r2.Body[j].Term(), via, vib)
		})
		d = (d + float64(m-k) + total) / float64(m+1)
	}
	o.pairs[pair] = d
	return d
}

func (o naive) distance(kb1, kb2 []*lang.Clause) float64 {
	dist := func(i, j int) float64 { return o.ruleDistance(kb1[i], kb2[j]) }
	m, k := len(kb1), len(kb2)
	if m < k {
		m, k = k, m
		dist = func(i, j int) float64 { return o.ruleDistance(kb1[j], kb2[i]) }
	}
	if m == 0 {
		return 0
	}
	return (float64(m-k) + o.assign(m, k, dist)) / float64(m)
}

func (o naive) assign(m, k int, dist func(i, j int) float64) float64 {
	cost := make([][]float64, m)
	for i := range cost {
		cost[i] = make([]float64, m)
		for j := 0; j < k; j++ {
			cost[i][j] = dist(i, j)
		}
	}
	_, total, err := hungarian.Solve(cost)
	if err != nil {
		o.t.Fatal(err)
	}
	return total
}

// candidateSets returns the rule sets the paper pipeline scores against the
// gold standard, and then some: the 12 simulated model × scheme event
// descriptions, what correct.Apply and correct.AutoFix make of each, the gold
// rules under every perturbation operator on its own (llm.Perturbations: the
// edits the error profiles are mixtures of) at two seeds, and zero-shot
// prompting, whose output shares almost nothing with the gold.
func candidateSets(t *testing.T) map[string][]*lang.Clause {
	t.Helper()
	domain, curriculum := maritime.PromptDomain(), maritime.CurriculumRequests()
	out := map[string][]*lang.Clause{}
	add := func(m prompt.Model, scheme prompt.Scheme, corrected bool) {
		gen, err := prompt.RunPipeline(m, scheme, domain, curriculum)
		if err != nil {
			t.Fatal(err)
		}
		out[gen.Label()] = gen.ED().Rules()
		if corrected {
			out[gen.Label()+" corrected"] = correct.Apply(gen, domain).Gen.ED().Rules()
			out[gen.Label()+" autofixed"] = correct.AutoFix(gen, domain).Gen.ED().Rules()
		}
	}
	for _, m := range llm.AllModels() {
		add(m, prompt.FewShot, true)
		add(m, prompt.ChainOfThought, true)
	}
	add(llm.MustNew("o1"), prompt.ZeroShot, false)
	know := llm.MaritimeKnowledge()
	full := llm.Rates{Rename: 1, ValueName: 1, Drop: 1, Undefined: 1, OpSwap: 1, Extra: 1}
	for _, op := range append(llm.Perturbations(full), llm.SwapIntervalOp(), llm.AddRedundantIntersect(), llm.Rename("thresholds", "limits", true)) {
		for seed := int64(1); seed <= 2; seed++ {
			out[fmt.Sprintf("gold under %s, seed %d", op.Name, seed)] = know.Perturbed(op, seed)
		}
	}
	return out
}

// byFluent groups rules by the fluent their head defines: the per-activity
// subsets eval.ScoreWith selects (and the support fluents' besides).
func byFluent(rules []*lang.Clause) map[string][]*lang.Clause {
	out := map[string][]*lang.Clause{}
	for _, c := range rules {
		if _, fl := c.HeadFVP(); fl != nil {
			out[fl.Functor] = append(out[fl.Functor], c)
		}
	}
	return out
}

// TestReferenceMatchesNaive: one Reference, scored in every way the
// pipeline scores it, returns bit for bit what the pairwise computation
// returns — so no output byte of the figures can move. Covered: the whole
// rule sets; each per-fluent subset of the gold against the candidate's
// rules of that fluent (often fewer, sometimes none) and against the
// candidate's whole set (more candidates than reference rules: the swapped
// orientation of the cost matrix); an empty reference subset; a candidate
// set that repeats a rule.
func TestReferenceMatchesNaive(t *testing.T) {
	gold := maritime.GoldED().Rules()
	ref := NewReference(gold)
	goldBy := byFluent(gold)
	cands := candidateSets(t)
	if len(cands) < 12*3 {
		t.Fatalf("only %d candidate sets", len(cands))
	}
	oracle := naive{t, map[[2]*lang.Clause]float64{}}
	compared := 0
	check := func(what string, subset, cand []*lang.Clause) {
		t.Helper()
		got, err := ref.Distance(subset, cand)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if want := oracle.distance(subset, cand); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: Reference.Distance = %v (%#x), pairwise = %v (%#x)",
				what, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		compared++
	}
	// Two passes: the second is answered from rows the first one stored.
	for pass := 0; pass < 2; pass++ {
		for label, cand := range cands {
			check(label, gold, cand)
			check(label+" vs no reference rule", nil, cand)
			candBy := byFluent(cand)
			for fluent, subset := range goldBy {
				check(label+" "+fluent, subset, candBy[fluent])
				if pass == 0 && len(subset) < 3 {
					check(label+" "+fluent+" vs whole candidate", subset, cand)
				}
			}
			if len(cand) > 0 {
				check(label+" with a repeated rule", gold, append(append([]*lang.Clause(nil), cand...), cand[0], cand[0]))
			}
		}
	}
	check("no candidate", gold, nil)
	check("nothing against nothing", nil, nil)
	t.Logf("%d distances compared, %d rows in the table", compared, len(ref.rows))

	// The package-level entry points run on the same kernel.
	for label, cand := range cands {
		got, err := Distance(gold, cand)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := ref.Distance(gold, cand); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: Distance = %v, Reference.Distance = %v", label, got, want)
		}
		for _, c := range cand[:min(3, len(cand))] {
			row, err := ref.Row(c)
			if err != nil {
				t.Fatal(err)
			}
			for i, g := range gold[:5] {
				if want := oracle.ruleDistance(g, c); math.Float64bits(row[i]) != math.Float64bits(want) {
					t.Errorf("%s: Row(%s)[%d] = %v, pairwise = %v", label, c.Head, i, row[i], want)
				}
			}
		}
	}
}

// TestReferenceRejectsForeignRule: a subset is drawn from the reference's
// own rules; a content-equal clone is not one of them.
func TestReferenceRejectsForeignRule(t *testing.T) {
	gold := maritime.GoldED().Rules()
	ref := NewReference(gold)
	if _, err := ref.Distance([]*lang.Clause{gold[0].Clone()}, gold); err == nil {
		t.Fatal("a rule the reference does not hold was accepted as a subset")
	}
}

// TestMatchFillsCostMatrix: the populated block of the cost matrix is
// dist(i, j) with the larger set on the rows whichever argument it is, the
// padding is zero, and nothing of a previous, larger pair shows through.
func TestMatchFillsCostMatrix(t *testing.T) {
	var a assignment
	dist := func(i, j int) float64 { return float64(i*31+j+1) / 2048 }
	for _, c := range []struct{ na, nb int }{{40, 33}, {5, 9}, {9, 5}, {3, 3}, {1, 0}, {0, 2}, {40, 33}} {
		m, k, _, err := a.match(c.na, c.nb, dist)
		if err != nil {
			t.Fatal(err)
		}
		if wantM, wantK := max(c.na, c.nb), min(c.na, c.nb); m != wantM || k != wantK {
			t.Fatalf("%d×%d: M, K = %d, %d", c.na, c.nb, m, k)
		}
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				want := 0.0
				switch {
				case j >= k:
				case c.na < c.nb:
					want = dist(j, i)
				default:
					want = dist(i, j)
				}
				if got := a.cost[i][j]; got != want {
					t.Fatalf("%d×%d: cell (%d,%d) = %v, want %v", c.na, c.nb, i, j, got, want)
				}
			}
		}
	}
	if m, k, total, err := a.match(0, 0, dist); m != 0 || k != 0 || total != 0 || err != nil {
		t.Fatalf("0×0: %d %d %v %v", m, k, total, err)
	}
}
