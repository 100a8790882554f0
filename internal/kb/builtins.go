package kb

import (
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

// ArithError reports an operand that does not evaluate: Term is the offending
// sub-term as the bindings left it — the very term that was written or bound
// when nothing inside it was bound further, so the evaluator can recognise a
// failure it has reported before by identity — and Op is the builtin whose
// operand it was (empty from EvalArith on its own). A builtin whose operands
// evaluate but whose result is not a finite number reports itself, resolved,
// as Term with NonFinite set: a NaN or infinite float term would render to
// text the parser refuses and would not be Equal to itself. The text is
// rendered when somebody asks for it.
type ArithError struct {
	Op        string
	Term      *lang.Term
	DivZero   bool // a division whose divisor evaluated to zero
	NonFinite bool // the builtin's result is NaN or infinite
	// Neither: Term is not an arithmetic expression at all.
}

func (e *ArithError) Error() string {
	var msg string
	switch {
	case e.DivZero:
		msg = "kb: division by zero in " + e.Term.String()
	case e.NonFinite:
		msg = "kb: " + e.Term.String() + " has no finite result"
	default:
		msg = "kb: " + e.Term.String() + " is not an arithmetic expression"
	}
	if e.Op == "" {
		return msg
	}
	return "kb: " + e.Op + ": " + msg
}

// EvalArith evaluates an arithmetic expression that is ground under b (nil
// for an expression taken as written): numbers, + - * /, and abs/1. Its only
// error is an *ArithError.
func EvalArith(t *lang.Term, b *lang.Bindings) (float64, error) {
	v, bad := evalArith(t, b)
	if bad != nil {
		return 0, bad
	}
	return v, nil
}

func evalArith(t *lang.Term, b *lang.Bindings) (float64, *ArithError) {
	t = b.Walk(t)
	if v, ok := t.Number(); ok {
		return v, nil
	}
	if t.Kind == lang.Compound {
		switch {
		case len(t.Args) == 2:
			x, bad := evalArith(t.Args[0], b)
			if bad != nil {
				return 0, bad
			}
			y, bad := evalArith(t.Args[1], b)
			if bad != nil {
				return 0, bad
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
					return 0, &ArithError{Term: b.Resolve(t), DivZero: true}
				}
				return x / y, nil
			}
		case len(t.Args) == 1 && t.Functor == "abs":
			x, bad := evalArith(t.Args[0], b)
			if bad != nil {
				return 0, bad
			}
			return math.Abs(x), nil
		}
	}
	return 0, &ArithError{Term: b.Resolve(t)}
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
// operands must be ground arithmetic expressions, and absAngleDiff's result
// finite; otherwise an *ArithError naming the builtin is returned, its only
// error.
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
	x, bad := evalArith(atom.Args[0], b)
	var y float64
	if bad == nil {
		y, bad = evalArith(atom.Args[1], b)
	}
	if bad != nil {
		bad.Op = atom.Functor
		return false, true, bad
	}
	if atom.Functor == "absAngleDiff" {
		d := AngleDiff(x, y)
		if math.IsNaN(d) || math.IsInf(d, 0) { // an infinite operand, such as 1e308 - -1e308
			return false, true, &ArithError{Op: atom.Functor, Term: b.Resolve(atom), NonFinite: true}
		}
		return b.Unify(atom.Args[2], lang.NewFloat(d)), true, nil
	}
	return Compare(atom.Functor, x, y), true, nil
}
