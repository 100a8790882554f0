package kb

import (
	"fmt"
	"math"

	"rtecgen/internal/lang"
)

// This file implements the arithmetic and comparison builtins of the RTEC
// dialect: the comparison operators <, >, =<, >=, =:= and =\=, unification
// (=) and non-unifiability (\=), and the native helper absAngleDiff/3 used
// by the maritime 'drifting' definition to compare course-over-ground with
// heading on the circle.

// Compare applies a numeric comparison operator (lang.OpCompare) to two
// numbers.
func Compare(op string, a, b float64) bool {
	switch op {
	case "<":
		return a < b
	case ">":
		return a > b
	case "=<":
		return a <= b
	case ">=":
		return a >= b
	case "=:=":
		return a == b
	default: // =\=
		return a != b
	}
}

// IsBuiltinPred reports whether functor/arity names a builtin predicate: a
// binary unification or comparison operator of lang's table, or
// absAngleDiff/3.
func IsBuiltinPred(functor string, arity int) bool {
	switch arity {
	case 2:
		op, ok := lang.Operator(functor)
		return ok && op.Class != lang.OpArith
	case 3:
		return functor == "absAngleDiff"
	}
	return false
}

// EvalArith evaluates an arithmetic expression that is ground under b (nil
// for an expression taken as written): numbers, + - * /, and abs/1.
func EvalArith(t *lang.Term, b *lang.Bindings) (float64, error) {
	t = b.Walk(t)
	if v, ok := t.Number(); ok {
		return v, nil
	}
	if t.Kind == lang.Compound {
		switch {
		case len(t.Args) == 2:
			x, err := EvalArith(t.Args[0], b)
			if err != nil {
				return 0, err
			}
			y, err := EvalArith(t.Args[1], b)
			if err != nil {
				return 0, err
			}
			switch t.Functor {
			case "+":
				return x + y, nil
			case "-":
				return x - y, nil
			case "*":
				return x * y, nil
			case "/":
				if y == 0 {
					return 0, fmt.Errorf("kb: division by zero in %s", b.Resolve(t))
				}
				return x / y, nil
			}
		case len(t.Args) == 1 && t.Functor == "abs":
			x, err := EvalArith(t.Args[0], b)
			if err != nil {
				return 0, err
			}
			return math.Abs(x), nil
		}
	}
	return 0, fmt.Errorf("kb: %s is not an arithmetic expression", b.Resolve(t))
}

// AngleDiff returns the minimal absolute difference between two angles in
// degrees, in [0, 180].
func AngleDiff(a, b float64) float64 {
	d := math.Mod(math.Abs(a-b), 360)
	if d > 180 {
		d = 360 - d
	}
	return d
}

// SolveBuiltin attempts to solve atom as a builtin under b. handled reports
// whether the atom names a builtin at all; when handled, ok reports whether
// it succeeded — a builtin has at most one solution — and b has been extended
// to that solution in place (the caller undoes to its own mark). Comparison
// operands must be ground arithmetic expressions; otherwise an error is
// returned.
func SolveBuiltin(atom *lang.Term, b *lang.Bindings) (ok, handled bool, err error) {
	if atom.Kind != lang.Compound || !IsBuiltinPred(atom.Functor, len(atom.Args)) {
		return false, false, nil
	}
	switch atom.Functor {
	case "=":
		return b.Unify(atom.Args[0], atom.Args[1]), true, nil
	case "\\=":
		mark := b.Mark()
		unifiable := b.Unify(atom.Args[0], atom.Args[1])
		b.Undo(mark)
		return !unifiable, true, nil
	}
	x, err := EvalArith(atom.Args[0], b)
	if err != nil {
		return false, true, fmt.Errorf("kb: %s: %w", atom.Functor, err)
	}
	y, err := EvalArith(atom.Args[1], b)
	if err != nil {
		return false, true, fmt.Errorf("kb: %s: %w", atom.Functor, err)
	}
	if atom.Functor == "absAngleDiff" {
		return b.Unify(atom.Args[2], lang.NewFloat(AngleDiff(x, y))), true, nil
	}
	return Compare(atom.Functor, x, y), true, nil
}
