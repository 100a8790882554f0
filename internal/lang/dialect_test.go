package lang_test

import (
	"math/rand"
	"testing"

	"rtecgen/internal/lang"
	"rtecgen/internal/parser"
)

// TestFluentRef pins the one decision the hand-written extractors used to
// make six times, on the shapes they disagreed on.
func TestFluentRef(t *testing.T) {
	cases := []struct {
		src    string
		fluent string // indicator of the fluent, "" for no reference
	}{
		{"holdsAt(f(X)=true, T)", "f/1"},
		{"holdsFor(f(X, Y)=v, I)", "f/2"},
		{"holdsAt(f=true, T)", "f/0"},
		// initiatedAt/terminatedAt as body conditions name a fluent too.
		{"initiatedAt(f(X)=true, T)", "f/1"},
		{"terminatedAt(f(X)=true, T)", "f/1"},
		// a variable or a number in F's place is not a fluent
		{"holdsAt(F=true, T)", ""},
		{"holdsAt(3=true, T)", ""},
		// the first argument must be F=V, and '=' binary
		{"holdsAt(f(X), T)", ""},
		{"holdsAt('='(f(X), true, extra), T)", ""},
		{"holdsAt(f(X) < 3, T)", ""},
		// arity 2 only
		{"holdsAt(f(X)=true)", ""},
		{"holdsAt(f(X)=true, T, U)", ""},
		// other predicates
		{"happensAt(f(X)=true, T)", ""},
		{"union_all([I1, I2], I)", ""},
		{"holdsAt", ""},
	}
	for _, c := range cases {
		fvp, fl := lang.FluentRef(parser.MustParseTerm(c.src))
		got := ""
		if fl != nil {
			got = fl.Indicator()
			if fvp == nil || fvp.Args[0] != fl {
				t.Errorf("FluentRef(%s): fvp %v does not hold the fluent %v", c.src, fvp, fl)
			}
		} else if fvp != nil {
			t.Errorf("FluentRef(%s): fvp %v without a fluent", c.src, fvp)
		}
		if got != c.fluent {
			t.Errorf("FluentRef(%s) = %q, want %q", c.src, got, c.fluent)
		}
	}
}

// TestHeadFVPNeedsCallableFluent: the head side makes the same decision.
func TestHeadFVPNeedsCallableFluent(t *testing.T) {
	for src, want := range map[string]bool{
		"initiatedAt(f(X)=true, T) :- happensAt(e(X), T).":  true,
		"holdsFor(f(X)=true, I) :- holdsFor(g(X)=true, I).": true,
		"initiatedAt(F=true, T) :- happensAt(e(F), T).":     false,
		"initiatedAt(f(X), T) :- happensAt(e(X), T).":       false,
		"initiatedAt(f(X)=true) :- happensAt(e(X), T).":     false,
		"holdsAt(f(X)=true, T) :- happensAt(e(X), T).":      false,
	} {
		fvp, fl := parser.MustParseClause(src).HeadFVP()
		if (fvp != nil) != want || (fl != nil) != want {
			t.Errorf("HeadFVP(%s) = %v, %v; want a pair: %v", src, fvp, fl, want)
		}
	}
}

func TestClauseAnchor(t *testing.T) {
	for src, want := range map[string]int{
		"initiatedAt(f(X)=true, T) :- happensAt(e(X), T), holdsAt(g(X)=true, T).":         0,
		"initiatedAt(f(X)=true, T) :- holdsAt(g(X)=true, T), happensAt(e(X), T).":         1,
		"initiatedAt(f(X)=true, T) :- not happensAt(d(X), T), happensAt(e(X), T).":        1,
		"initiatedAt(f(X)=true, T) :- happensAt(d(X)), happensAt(e(X), T).":               1,
		"initiatedAt(f(X)=true, T) :- happensAt(d(X), T), happensAt(e(X), T).":            0,
		"initiatedAt(f(X)=true, T) :- not happensAt(d(X), T), holdsAt(g(X)=true, T).":     -1,
		"initiatedAt(f(X)=true, T) :- happensAt(d(X)).":                                   -1,
		"holdsFor(f(X)=true, I) :- holdsFor(g(X)=true, I1), union_all([I1], I).":          -1,
		"thresholds(movingMin, 0.5).":                                                     -1,
		"initiatedAt(f(X)=true, T) :- vessel(X), happensAt(e(X), T), happensAt(d(X), T).": 1,
	} {
		if got := parser.MustParseClause(src).Anchor(); got != want {
			t.Errorf("Anchor(%s) = %d, want %d", src, got, want)
		}
	}
}

// infixOperators finds, by trying every short string over the punctuation
// alphabet, the operators the parser accepts between two operands — without
// reading lang's table, which is the thing under test.
func infixOperators(t *testing.T) []string {
	const alphabet = `=<>\:+-*/|.,`
	var ops []string
	var try func(prefix string, depth int)
	try = func(prefix string, depth int) {
		if prefix != "" {
			term, err := parser.ParseTerm("a " + prefix + " b")
			if err == nil && term.Kind == lang.Compound && term.Functor == prefix && len(term.Args) == 2 &&
				term.Args[0].Equal(lang.NewAtom("a")) && term.Args[1].Equal(lang.NewAtom("b")) {
				ops = append(ops, prefix)
			}
		}
		if depth == 3 {
			return
		}
		for _, c := range alphabet {
			try(prefix+string(c), depth+1)
		}
	}
	try("", 0)
	if len(ops) == 0 {
		t.Fatal("the parser accepts no infix operator")
	}
	return ops
}

// TestOperatorsPrintAsTheyParse: every operator the parser accepts infix has
// a row in lang's table, and any nesting of such operators prints to a text
// that parses back to an equal term — one table, read by both sides.
func TestOperatorsPrintAsTheyParse(t *testing.T) {
	ops := infixOperators(t)
	for _, op := range ops {
		if _, ok := lang.Operator(op); !ok {
			t.Errorf("parser accepts %q infix but lang.Operator does not know it", op)
		}
		if lang.Reserved(op) != lang.InfixOp {
			t.Errorf("Reserved(%q) = %v, want InfixOp", op, lang.Reserved(op))
		}
		leaf := lang.NewCompound(op, lang.NewAtom("a"), lang.NewAtom("b"))
		if got := leaf.String(); got != "a "+op+" b" && got != "a"+op+"b" {
			t.Errorf("%q prints as %q, not infix", op, got)
		}
	}
	rng := rand.New(rand.NewSource(1))
	var gen func(depth int) *lang.Term
	gen = func(depth int) *lang.Term {
		if depth == 0 || rng.Intn(4) == 0 {
			switch rng.Intn(3) {
			case 0:
				return lang.NewVar("X")
			case 1:
				return lang.NewInt(int64(rng.Intn(9)))
			}
			return lang.NewCompound("f", lang.NewAtom("a"))
		}
		return lang.NewCompound(ops[rng.Intn(len(ops))], gen(depth-1), gen(depth-1))
	}
	for i := 0; i < 2000; i++ {
		term := gen(4)
		back, err := parser.ParseTerm(term.String())
		if err != nil {
			t.Fatalf("%s does not parse back: %v", term, err)
		}
		if !back.Equal(term) {
			t.Fatalf("%s parses back as a different term: %s", term, back)
		}
	}
}
