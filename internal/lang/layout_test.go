package lang

import (
	"math"
	"testing"
	"unsafe"
)

// TestTermSize: every parsed rule, gold reference and input event is built
// of Terms, so their size is the floor of every layer's bytes. Kind is one
// byte, Position two int32s, and a Float or Str keeps its payload in Int or
// Functor: 64 bytes. A separate float and text field made it 96.
func TestTermSize(t *testing.T) {
	if got := unsafe.Sizeof(Term{}); got != 64 {
		t.Fatalf("unsafe.Sizeof(Term{}) = %d, want 64", got)
	}
	if got := unsafe.Sizeof(Position{}); got != 8 {
		t.Fatalf("unsafe.Sizeof(Position{}) = %d, want 8", got)
	}
}

// TestFloatSemantics: a Float's IEEE bits live in Int, but Equal, Hash,
// Unify and Compare read its value: -0.0 is 0.0, NaN equals nothing, and a
// Float unifies with the Int of the same value (never Equal to it).
func TestFloatSemantics(t *testing.T) {
	nan := NewFloat(math.NaN())
	cases := []struct {
		name         string
		a, b         *Term
		equal, unify bool
	}{
		{"0.0 vs -0.0", NewFloat(0), NewFloat(math.Copysign(0, -1)), true, true},
		{"2.5 vs 2.5", NewFloat(2.5), NewFloat(2.5), true, true},
		{"2.5 vs 2.25", NewFloat(2.5), NewFloat(2.25), false, false},
		{"NaN vs NaN", nan, NewFloat(math.NaN()), false, false},
		{"5 vs 5.0", NewInt(5), NewFloat(5), false, true},
		{"5.0 vs 5", NewFloat(5), NewInt(5), false, true},
		{"5 vs 5.5", NewInt(5), NewFloat(5.5), false, false},
		{"0 vs -0.0", NewInt(0), NewFloat(math.Copysign(0, -1)), false, true},
		{"f(-0.0) vs f(0.0)", NewCompound("f", NewFloat(math.Copysign(0, -1))), NewCompound("f", NewFloat(0)), true, true},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.equal {
			t.Errorf("%s: Equal = %v, want %v", c.name, got, c.equal)
		}
		if c.equal && Hash(c.a, nil) != Hash(c.b, nil) {
			t.Errorf("%s: Equal terms hash apart", c.name)
		}
		var b Bindings
		if got := b.Unify(c.a, c.b); got != c.unify {
			t.Errorf("%s: Unify = %v, want %v", c.name, got, c.unify)
		}
		if c.equal && Compare(c.a, c.b) != 0 {
			t.Errorf("%s: Equal terms compare %d", c.name, Compare(c.a, c.b))
		}
	}
	if Compare(NewFloat(2.25), NewInt(3)) >= 0 || Compare(NewFloat(-1.5), NewFloat(-2)) <= 0 {
		t.Error("Compare does not order floats by value")
	}
	in := NewInterner()
	if in.ID(NewFloat(0), nil) != in.ID(NewFloat(math.Copysign(0, -1)), nil) {
		t.Error("-0.0 and 0.0 intern apart")
	}
}

// TestFloatRendering: a Float renders from its value, as strconv's shortest
// 'g' form with ".0" kept on integral values, exponents included. The cases
// are finite because every Float the system builds is: the parser refuses an
// out-of-range literal, and kb's absAngleDiff, the one builtin that binds a
// computed float, refuses a NaN or infinite result (kb's
// TestSolveBuiltinAbsAngleDiff, rtec's TestNonFiniteAngleWarns). A non-finite
// Float would render as "NaN.0" or "+Inf.0", which ParseTerm refuses.
func TestFloatRendering(t *testing.T) {
	for _, c := range []struct {
		v    float64
		want string
	}{
		{0, "0.0"},
		{math.Copysign(0, -1), "-0.0"},
		{90, "90.0"},
		{2.5, "2.5"},
		{-0.1, "-0.1"},
		{1e21, "1e+21"},
		{1.5e-7, "1.5e-07"},
		{123456789, "1.23456789e+08"},
	} {
		if got := NewFloat(c.v).String(); got != c.want {
			t.Errorf("NewFloat(%v).String() = %q, want %q", c.v, got, c.want)
		}
		if v, ok := NewFloat(c.v).Number(); !ok || math.Float64bits(v) != math.Float64bits(c.v) {
			t.Errorf("NewFloat(%v).Number() = %v, %v", c.v, v, ok)
		}
	}
}

// TestStrApartFromAtom: a Str keeps its text in Functor, where an Atom
// keeps its name; Kind alone keeps "v1" and v1 apart.
func TestStrApartFromAtom(t *testing.T) {
	s, a := NewStr("v1"), NewAtom("v1")
	if s.String() != `"v1"` || a.String() != "v1" {
		t.Fatalf("render %s and %s", s, a)
	}
	if s.Equal(a) || a.Equal(s) {
		t.Error(`"v1" Equal to v1`)
	}
	if Hash(s, nil) == Hash(a, nil) {
		t.Error(`"v1" and v1 hash alike`)
	}
	in := NewInterner()
	if in.ID(s, nil) == in.ID(a, nil) {
		t.Error(`"v1" and v1 intern alike`)
	}
	var b Bindings
	if b.Unify(s, a) || b.Unify(NewCompound("f", s), NewCompound("f", a)) {
		t.Error(`"v1" unifies with v1`)
	}
	if !b.Unify(s, NewStr("v1")) || Compare(s, a) <= 0 {
		t.Error(`"v1" does not unify with itself, or sorts before the atom`)
	}
	if s.IsCallable() || s.Pred() != (PredKey{}) || s.Indicator() != "string" {
		t.Errorf("a Str reads as callable: %v %v %s", s.IsCallable(), s.Pred(), s.Indicator())
	}
}
