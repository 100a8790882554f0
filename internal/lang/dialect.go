package lang

// This file is the one statement of the RTEC dialect's fixed vocabulary: the
// infix operator table that the printer, the parser and the builtin
// evaluator share, and the reserved words no event description may use as a
// symbol of its own. Every other package asks here; none lists members.

// OpClass says what an infix operator does with its two operands.
type OpClass int

const (
	// OpUnify is = and \=: (non-)unifiability of two terms.
	OpUnify OpClass = iota + 1
	// OpCompare is < > =< >= =:= =\=: a numeric comparison of two arithmetic
	// expressions.
	OpCompare
	// OpArith is + - * /: arithmetic.
	OpArith
)

// Op is one row of the operator table. OpUnify and OpCompare operators bind
// loosest (1) and do not associate; additive operators (2) and multiplicative
// ones (3) associate to the left.
type Op struct {
	Prec  int
	Class OpClass
}

// Operator returns the table row of an infix operator name. The table is a
// switch, not a map: the printer asks for every binary compound it renders
// and the parser for every punctuation token, and nearly all of those are
// misses a length test settles.
func Operator(name string) (Op, bool) {
	switch name {
	case "=", "\\=":
		return Op{1, OpUnify}, true
	case "<", ">", ">=", "=<", "=:=", "=\\=":
		return Op{1, OpCompare}, true
	case "+", "-":
		return Op{2, OpArith}, true
	case "*", "/":
		return Op{3, OpArith}, true
	}
	return Op{}, false
}

// WordClass classifies a reserved word of the dialect.
type WordClass int

const (
	// NotReserved is a name the event description is free to define.
	NotReserved WordClass = iota
	// FluentPred is a predicate over a fluent-value pair: initiatedAt,
	// terminatedAt, holdsAt, holdsFor.
	FluentPred
	// EventPred is happensAt.
	EventPred
	// IntervalOp is an interval construct of statically determined fluent
	// definitions: union_all, intersect_all, relative_complement_all.
	IntervalOp
	// Declaration is inputEvent, grounding or thresholds.
	Declaration
	// Builtin is not, true, abs or absAngleDiff.
	Builtin
	// InfixOp is a name of the operator table.
	InfixOp
)

var reserved = map[string]WordClass{
	"initiatedAt": FluentPred, "terminatedAt": FluentPred, "holdsAt": FluentPred, "holdsFor": FluentPred,
	"happensAt": EventPred,
	"union_all": IntervalOp, "intersect_all": IntervalOp, "relative_complement_all": IntervalOp,
	"inputEvent": Declaration, "grounding": Declaration, "thresholds": Declaration,
	"not": Builtin, "true": Builtin, "abs": Builtin, "absAngleDiff": Builtin,
}

// Reserved returns the class of a reserved word, NotReserved for any other
// name.
func Reserved(name string) WordClass {
	if c, ok := reserved[name]; ok {
		return c
	}
	if _, ok := Operator(name); ok {
		return InfixOp
	}
	return NotReserved
}

// ruleHead maps the functor of a temporal rule head to the kind of clause it
// heads, and any other functor to KindFact.
func ruleHead(functor string) HeadKind {
	switch functor {
	case "initiatedAt":
		return KindInitiatedAt
	case "terminatedAt":
		return KindTerminatedAt
	case "holdsFor":
		return KindHoldsFor
	}
	return KindFact
}

// IsRuleHead reports whether a clause headed by functor is meant as a
// temporal rule, whatever the shape of its arguments.
func IsRuleHead(functor string) bool { return ruleHead(functor) != KindFact }

// fluentOf returns F when t is a well-formed fluent-value pair F=V — the
// compound '='(F, V) over a callable F — and nil otherwise.
func fluentOf(t *Term) *Term {
	if t.Kind == Compound && t.Functor == "=" && len(t.Args) == 2 && t.Args[0].IsCallable() {
		return t.Args[0]
	}
	return nil
}

// FluentRef extracts the fluent-value pair a body condition refers to, and
// its fluent term: the first argument of a binary holdsAt, holdsFor,
// initiatedAt or terminatedAt condition over a well-formed F=V. Any other
// condition — a variable or a number in F's place included — yields nils.
func FluentRef(atom *Term) (fvp, fluent *Term) {
	if atom.Kind != Compound || len(atom.Args) != 2 || reserved[atom.Functor] != FluentPred {
		return nil, nil
	}
	if fl := fluentOf(atom.Args[0]); fl != nil {
		return atom.Args[0], fl
	}
	return nil, nil
}
