package kb

import (
	"errors"
	"math"
	"testing"

	"rtecgen/internal/lang"
	"rtecgen/internal/parser"
)

func TestEvalArith(t *testing.T) {
	cases := []struct {
		src  string
		want float64
	}{
		{"3", 3},
		{"2.5", 2.5},
		{"1 + 2", 3},
		{"2 * 3 + 1", 7},
		{"10 - 4 - 3", 3},
		{"10 / 4", 2.5},
		{"abs(3 - 10)", 7},
		{"-5", -5},
	}
	for _, c := range cases {
		got, err := EvalArith(parser.MustParseTerm(c.src), nil)
		if err != nil {
			t.Errorf("EvalArith(%q): %v", c.src, err)
			continue
		}
		if got != c.want {
			t.Errorf("EvalArith(%q) = %v, want %v", c.src, got, c.want)
		}
	}
	if _, err := EvalArith(parser.MustParseTerm("foo"), nil); err == nil {
		t.Fatal("atom evaluated as arithmetic")
	}
	if _, err := EvalArith(parser.MustParseTerm("1 / 0"), nil); err == nil {
		t.Fatal("division by zero succeeded")
	}
	if _, err := EvalArith(parser.MustParseTerm("X + 1"), nil); err == nil {
		t.Fatal("unbound variable evaluated")
	}
}

func TestAngleDiff(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{0, 0, 0},
		{10, 350, 20},
		{350, 10, 20},
		{0, 180, 180},
		{90, 270, 180},
		{45, 90, 45},
		{720, 0, 0},
	}
	for _, c := range cases {
		if got := AngleDiff(c.a, c.b); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("AngleDiff(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// solve runs one builtin from an empty store and returns the goal as its
// solution resolves it ("" when it fails).
func solve(t *testing.T, src string) (solution string, handled bool, err error) {
	t.Helper()
	g, b := goal(src)
	ok, handled, err := SolveBuiltin(g, b)
	if !ok {
		if b.Mark() != 0 {
			t.Fatalf("%s failed but left %d bindings", src, b.Mark())
		}
		return "", handled, err
	}
	return b.Resolve(g).String(), handled, err
}

func TestSolveBuiltinComparisons(t *testing.T) {
	for src, want := range map[string]bool{"3 < 5": true, "5 =< 3": false, "2 =:= 2.0": true, "2 =\\= 3": true, "2 >= 3": false, "3 > 2": true} {
		got, handled, err := solve(t, src)
		if !handled || err != nil || (got != "") != want {
			t.Errorf("%s: handled=%v err=%v solved=%v, want %v", src, handled, err, got != "", want)
		}
	}
}

func TestSolveBuiltinUnification(t *testing.T) {
	if got, handled, err := solve(t, "X = f(a)"); !handled || err != nil || got != "f(a)=f(a)" {
		t.Fatalf("X = f(a): %q %v %v", got, handled, err)
	}
	if got, _, _ := solve(t, "a \\= b"); got == "" {
		t.Fatal("a \\= b should succeed")
	}
	if got, _, _ := solve(t, "a \\= a"); got != "" {
		t.Fatal("a \\= a should fail")
	}
	// \= succeeds or fails without binding anything.
	if got, _, _ := solve(t, "X \\= a"); got != "" {
		t.Fatal("X \\= a should fail: they unify")
	}
	if got, _, _ := solve(t, "f(X, b) \\= f(a, c)"); got != "f(X, b) \\= f(a, c)" {
		t.Fatalf("f(X, b) \\= f(a, c) solved to %q: it must succeed leaving X unbound", got)
	}
}

func TestSolveBuiltinAbsAngleDiff(t *testing.T) {
	if got, handled, err := solve(t, "absAngleDiff(350, 10, D)"); !handled || err != nil || got != "absAngleDiff(350, 10, 20.0)" {
		t.Fatalf("absAngleDiff: %q %v %v", got, handled, err)
	}
	// Checking mode: third argument bound.
	if got, _, err := solve(t, "absAngleDiff(350, 10, 20.0)"); err != nil || got == "" {
		t.Fatalf("checking mode failed: %v", err)
	}
	if got, _, err := solve(t, "absAngleDiff(350, 10, 21)"); err != nil || got != "" {
		t.Fatal("wrong diff accepted")
	}
	// Unbound angle is an error.
	if _, _, err := solve(t, "absAngleDiff(A, 10, D)"); err == nil || err.Error() != "kb: absAngleDiff: kb: A is not an arithmetic expression" {
		t.Fatalf("unbound angle: err = %v", err)
	}
	// Finite angles whose difference overflows have no finite result: the
	// builtin refuses, as division by zero is refused, rather than bind D to
	// a NaN that renders as "NaN.0", which the parser refuses.
	got, handled, err := solve(t, "absAngleDiff(1e308, -1e308, D)")
	var bad *ArithError
	if !handled || got != "" || !errors.As(err, &bad) || !bad.NonFinite ||
		err.Error() != "kb: absAngleDiff: kb: absAngleDiff(1e+308, -1e+308, D) has no finite result" {
		t.Fatalf("overflowing difference: %q %v %v", got, handled, err)
	}
}

// TestSolveBuiltinThroughBindings: operands are read through the store, and
// an error names the expression as the bindings leave it.
func TestSolveBuiltinThroughBindings(t *testing.T) {
	g, b := goal("X / Y < Z")
	div := g.Args[0]
	b.Unify(div.Args[0], lang.NewInt(6))
	b.Unify(div.Args[1], lang.NewInt(0))
	if _, _, err := SolveBuiltin(g, b); err == nil || err.Error() != "kb: <: kb: division by zero in 6 / 0" {
		t.Fatalf("err = %v", err)
	}
	b.Undo(1)
	b.Unify(div.Args[1], lang.NewInt(3))
	if _, _, err := SolveBuiltin(g, b); err == nil || err.Error() != "kb: <: kb: Z is not an arithmetic expression" {
		t.Fatalf("err = %v", err)
	}
	b.Unify(g.Args[1], lang.NewFloat(2.5))
	if ok, _, err := SolveBuiltin(g, b); err != nil || !ok {
		t.Fatalf("6 / 3 < 2.5: ok=%v err=%v", ok, err)
	}
}

func TestSolveBuiltinNotABuiltin(t *testing.T) {
	if _, handled, _ := solve(t, "areaType(a1, fishing)"); handled {
		t.Fatal("areaType treated as builtin")
	}
	if _, handled, _ := solve(t, "foo"); handled {
		t.Fatal("atom treated as builtin")
	}
}

func TestIsBuiltin(t *testing.T) {
	for _, op := range []string{"<", ">", "=<", ">=", "=:=", "=\\=", "=", "\\="} {
		if !IsBuiltinPred(op, 2) {
			t.Errorf("IsBuiltinPred(%q, 2) = false", op)
		}
	}
	if !IsBuiltinPred("absAngleDiff", 3) {
		t.Error("IsBuiltinPred(absAngleDiff, 3) = false")
	}
	if IsBuiltinPred("happensAt", 2) || IsBuiltinPred("=", 3) || IsBuiltinPred("+", 2) {
		t.Fatal("false positive")
	}
}
