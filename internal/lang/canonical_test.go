package lang_test

import (
	"strconv"
	"testing"

	"rtecgen/internal/fleet"
	"rtecgen/internal/lang"
	"rtecgen/internal/llm"
	"rtecgen/internal/maritime"
	"rtecgen/internal/parser"
	"rtecgen/internal/prompt"
)

// slotNamed is the oracle of TestAppendCanonicalClasses: the canonical
// rendering as it was made before Clause.AppendCanonical — the clause
// numbered through a VarTable into a copy, the copy's variables renamed after
// their slots into a second copy, and that one printed.
func slotNamed(c *lang.Clause) string {
	var vt lang.VarTable
	n := vt.NumberClause(c)
	out := &lang.Clause{Head: slotNamedTerm(n.Head)}
	for _, l := range n.Body {
		out.Body = append(out.Body, lang.Literal{Neg: l.Neg, Atom: slotNamedTerm(l.Atom)})
	}
	return out.String()
}

func slotNamedTerm(t *lang.Term) *lang.Term {
	if t.Kind == lang.Var {
		return lang.NewVar("_" + strconv.FormatInt(t.Int, 10))
	}
	if len(t.Args) == 0 {
		return t
	}
	n := *t
	n.Args = make([]*lang.Term, len(t.Args))
	for i, a := range t.Args {
		n.Args[i] = slotNamedTerm(a)
	}
	return &n
}

// TestAppendCanonicalClasses: over every clause of the gold descriptions of
// both domains, the twelve generated maritime descriptions and the gold rules
// under every perturbation operator — and a few clauses written to confuse a
// renamer — two clauses get equal AppendCanonical bytes exactly when the
// oracle gives them equal strings. (They get the oracle's very bytes, which
// says so and more; the classes are what R006, R011 and the definition
// fingerprint stand on.)
func TestAppendCanonicalClasses(t *testing.T) {
	var clauses []*lang.Clause
	clauses = append(clauses, maritime.GoldED().Clauses...)
	clauses = append(clauses, fleet.GoldED().Clauses...)
	for _, m := range llm.AllModels() {
		for _, scheme := range []prompt.Scheme{prompt.FewShot, prompt.ChainOfThought} {
			gen, err := prompt.RunPipeline(m, scheme, maritime.PromptDomain(), maritime.CurriculumRequests())
			if err != nil {
				t.Fatal(err)
			}
			clauses = append(clauses, gen.ED().Clauses...)
		}
	}
	full := llm.Rates{Rename: 1, ValueName: 1, Drop: 1, Undefined: 1, OpSwap: 1, Extra: 1}
	ops := append(llm.Perturbations(full), llm.SwapIntervalOp(), llm.AddRedundantIntersect(), llm.Rename("thresholds", "limits", true))
	for _, know := range []*llm.Knowledge{llm.MaritimeKnowledge(), fleet.Knowledge()} {
		for _, op := range ops {
			for seed := int64(1); seed <= 3; seed++ {
				clauses = append(clauses, know.Perturbed(op, seed)...)
			}
		}
	}
	v := lang.NewVar
	for _, src := range []string{
		// variants of one rule, and near-variants that are not
		"initiatedAt(f(X)=true, T) :- happensAt(e(X, Y), T), g(Y, Z), not h(Z).",
		"initiatedAt(f(A)=true, T2) :- happensAt(e(A, B), T2), g(B, C), not h(C).",
		"initiatedAt(f(X)=true, T) :- happensAt(e(X, Y), T), g(Y, Z), not h(Y).",
		"initiatedAt(f(X)=true, T) :- happensAt(e(X, X), T), g(X, Z), not h(Z).",
		"initiatedAt(f(X)=true, T) :- happensAt(e(X, Y), T), g(Y, Z), h(Z).",
		// variables that first occur in the body, in either order
		"p :- q(First, Second), r(Second, First).",
		"p :- q(Second, First), r(First, Second).",
		"p :- q(First, Second), r(First, Second).",
		// anonymous variables: the parser tells them apart
		"p(_, _) :- q(_).",
		"p(X, Y) :- q(Z).",
		"p(X, X) :- q(X).",
	} {
		clauses = append(clauses, parser.MustParseClause(src))
	}
	clauses = append(clauses,
		// a user variable literally named like a canonical one, at another slot
		&lang.Clause{Head: lang.NewCompound("p", v("_2"), v("_1")), Body: []lang.Literal{lang.Pos(lang.NewCompound("q", v("_1"), v("_2")))}},
		&lang.Clause{Head: lang.NewCompound("p", v("_1"), v("_2")), Body: []lang.Literal{lang.Pos(lang.NewCompound("q", v("_2"), v("_1")))}},
		&lang.Clause{Head: lang.NewCompound("p", v("_1"), v("_2")), Body: []lang.Literal{lang.Pos(lang.NewCompound("q", v("_1"), v("_2")))}},
		// a hand-built clause repeating one variable called "_"
		&lang.Clause{Head: lang.NewCompound("p", v("_"), v("_")), Body: []lang.Literal{lang.Neg(lang.NewCompound("q", v("_")))}},
		&lang.Clause{Head: lang.NewCompound("p", v("X"), v("X")), Body: []lang.Literal{lang.Neg(lang.NewCompound("q", v("X")))}},
		&lang.Clause{Head: lang.NewCompound("p", v("X"), v("Y")), Body: []lang.Literal{lang.Neg(lang.NewCompound("q", v("X")))}},
	)

	byCanon, byOracle := map[string]string{}, map[string]string{}
	var buf []byte
	var vars []string
	for _, c := range clauses {
		buf, vars = c.AppendCanonical(buf[:0], vars[:0])
		canon, oracle := string(buf), slotNamed(c)
		if o, ok := byCanon[canon]; ok && o != oracle {
			t.Fatalf("AppendCanonical gives\n%s\nto two clauses the oracle tells apart:\n%s\n%s", canon, o, oracle)
		}
		if k, ok := byOracle[oracle]; ok && k != canon {
			t.Fatalf("the oracle gives\n%s\nto two clauses AppendCanonical tells apart:\n%s\n%s", oracle, k, canon)
		}
		byCanon[canon], byOracle[oracle] = oracle, canon
		if canon != oracle {
			t.Errorf("AppendCanonical renders\n%s\nthe oracle\n%s", canon, oracle)
		}
	}
	t.Logf("%d clauses, %d classes", len(clauses), len(byCanon))
	if len(byCanon) < 200 || len(byCanon) == len(clauses) {
		t.Errorf("%d classes over %d clauses: the set must hold both many definitions and variants of some", len(byCanon), len(clauses))
	}
}
