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

// Fault is an operand that does not evaluate, as Solve reports it: an
// ArithError before its term is resolved and its builtin named. Term is the
// offending sub-term as walked under the bindings (the builtin's own atom,
// for a result that is not finite); nil means no fault. It is a value, so a
// condition that fails the same way at every anchor event costs its caller
// nothing until the caller asks for the error.
type Fault struct {
	Term      *lang.Term
	DivZero   bool
	NonFinite bool
}

// Error returns the ArithError of builtin op for the fault, its term
// resolved under b.
func (f Fault) Error(op string, b *lang.Bindings) *ArithError {
	return &ArithError{Op: op, Term: b.Resolve(f.Term), DivZero: f.DivZero, NonFinite: f.NonFinite}
}

// EvalArith evaluates an arithmetic expression that is ground under b (nil
// for an expression taken as written): numbers, + - * /, and abs/1. Its only
// error is an *ArithError.
func EvalArith(t *lang.Term, b *lang.Bindings) (float64, error) {
	v, f := evalArith(t, b)
	if f.Term != nil {
		return 0, f.Error("", b)
	}
	return v, nil
}

func evalArith(t *lang.Term, b *lang.Bindings) (float64, Fault) {
	t = b.Walk(t)
	if v, ok := t.Number(); ok {
		return v, Fault{}
	}
	if t.Kind == lang.Compound {
		switch {
		case len(t.Args) == 2:
			x, f := evalArith(t.Args[0], b)
			if f.Term != nil {
				return 0, f
			}
			y, f := evalArith(t.Args[1], b)
			if f.Term != nil {
				return 0, f
			}
			switch t.Functor {
			case "+":
				return x + y, Fault{}
			case "-":
				return x - y, Fault{}
			case "*":
				return x * y, Fault{}
			case "/":
				if y == 0 {
					return 0, Fault{Term: t, DivZero: true}
				}
				return x / y, Fault{}
			}
		case len(t.Args) == 1 && t.Functor == "abs":
			x, f := evalArith(t.Args[0], b)
			if f.Term != nil {
				return 0, f
			}
			return math.Abs(x), Fault{}
		}
	}
	return 0, Fault{Term: t}
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
	ok, f := Solve(atom, b, nil)
	if f.Term != nil {
		return false, true, f.Error(atom.Functor, b)
	}
	return ok, true, nil
}

// Solve is SolveBuiltin for an atom known to name a builtin (a compiled
// rule's condition), for an evaluator that solves it at every anchor event:
// it allocates nothing. An operand that does not evaluate is reported as a
// Fault. result, when not nil, is memory of the caller's that absAngleDiff's
// result is written into when it binds a variable, instead of a new term: b
// then holds a pointer to it, so the caller must not let it outlive the
// binding — nothing the bindings build may keep it (see rtec's compiled
// rules, which pass it only for a result that feeds comparisons alone).
func Solve(atom *lang.Term, b *lang.Bindings, result *lang.Term) (ok bool, f Fault) {
	switch atom.Functor {
	case "=":
		return b.Unify(atom.Args[0], atom.Args[1]), Fault{}
	case "\\=":
		mark := b.Mark()
		unifiable := b.Unify(atom.Args[0], atom.Args[1])
		b.Undo(mark)
		return !unifiable, Fault{}
	}
	x, f := evalArith(atom.Args[0], b)
	var y float64
	if f.Term == nil {
		y, f = evalArith(atom.Args[1], b)
	}
	if f.Term != nil {
		return false, f
	}
	if atom.Functor != "absAngleDiff" {
		return Compare(atom.Functor, x, y), Fault{}
	}
	d := AngleDiff(x, y)
	if math.IsNaN(d) || math.IsInf(d, 0) { // an infinite operand, such as 1e308 - -1e308
		return false, Fault{Term: atom, NonFinite: true}
	}
	if want, ok := b.Walk(atom.Args[2]).Number(); ok {
		return want == d, Fault{} // checking mode: nothing to bind
	}
	if result == nil {
		return b.Unify(atom.Args[2], lang.NewFloat(d)), Fault{}
	}
	*result = lang.FloatTerm(d)
	return b.Unify(atom.Args[2], result), Fault{}
}
