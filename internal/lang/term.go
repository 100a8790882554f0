// Package lang defines the abstract syntax of the RTEC dialect used
// throughout this repository: terms, literals, clauses and event
// descriptions, together with unification, variable handling and the
// tree-representation machinery (paper Definitions 4.7-4.10) that the
// similarity metric builds on.
package lang

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode"
)

// Kind discriminates the variants of Term.
type Kind uint8

const (
	// Var is a logic variable (name starts with an upper-case letter or '_').
	Var Kind = iota
	// Atom is a constant symbol (name starts with a lower-case letter).
	Atom
	// Int is an integer constant.
	Int
	// Float is a floating-point constant.
	Float
	// Str is a double-quoted string constant.
	Str
	// Compound is a functor applied to one or more arguments.
	Compound
	// List is a proper list of terms.
	List
)

func (k Kind) String() string {
	switch k {
	case Var:
		return "var"
	case Atom:
		return "atom"
	case Int:
		return "int"
	case Float:
		return "float"
	case Str:
		return "string"
	case Compound:
		return "compound"
	case List:
		return "list"
	}
	return "unknown"
}

// Term is a node of the RTEC term language. A Term is immutable by
// convention: code in this repository never mutates a Term after
// construction, so Terms may be shared freely.
//
// A Term is 64 bytes: every kind shares the same two payload words. Functor
// holds a name (variable, atom, compound functor) or a string constant's
// text; Int holds an integer, a numbered variable's slot, or a float's IEEE
// bits. Code that reads either word for an arbitrary term switches on Kind
// first: a Str has a Functor and a Float a non-zero Int.
type Term struct {
	Kind    Kind
	Functor string   // variable name, atom symbol, compound functor, or string constant text
	Args    []*Term  // compound arguments or list elements
	Int     int64    // integer payload; a Float's IEEE bits; for a Var numbered by a VarTable, its slot+1
	Pos     Position // source position when the term was parsed; zero otherwise
}

// NewVar returns a variable term with the given name.
func NewVar(name string) *Term { return &Term{Kind: Var, Functor: name} }

// NewAtom returns a constant symbol term.
func NewAtom(sym string) *Term { return &Term{Kind: Atom, Functor: sym} }

// NewInt returns an integer constant term.
func NewInt(v int64) *Term { return &Term{Kind: Int, Int: v} }

// NewFloat returns a floating-point constant term.
func NewFloat(v float64) *Term {
	t := FloatTerm(v)
	return &t
}

// FloatTerm returns a floating-point constant term as a value, for a caller
// that stores it in memory of its own.
func FloatTerm(v float64) Term { return Term{Kind: Float, Int: int64(math.Float64bits(v))} }

// NewStr returns a string constant term.
func NewStr(s string) *Term { return &Term{Kind: Str, Functor: s} }

// float returns the value of a Float term, whose IEEE bits Int holds.
func (t *Term) float() float64 { return math.Float64frombits(uint64(t.Int)) }

// NewCompound returns a compound term functor(args...). With no arguments it
// degenerates to an Atom, matching Prolog convention.
func NewCompound(functor string, args ...*Term) *Term {
	if len(args) == 0 {
		return NewAtom(functor)
	}
	return &Term{Kind: Compound, Functor: functor, Args: args}
}

// NewList returns a proper list term holding the given elements.
func NewList(elems ...*Term) *Term { return &Term{Kind: List, Args: elems} }

// FVP builds the fluent-value pair term F=V, represented as the compound
// '='(F, V) following the paper's prefix notation (Example 4.10).
func FVP(fluent, value *Term) *Term { return NewCompound("=", fluent, value) }

// Arity returns the number of arguments of t (0 for non-compound terms and
// the element count for lists).
func (t *Term) Arity() int { return len(t.Args) }

// IsConst reports whether t is an atomic constant (atom, number or string).
func (t *Term) IsConst() bool {
	switch t.Kind {
	case Atom, Int, Float, Str:
		return true
	}
	return false
}

// IsCallable reports whether t can stand as a predicate: an atom or compound.
func (t *Term) IsCallable() bool { return t.Kind == Atom || t.Kind == Compound }

// Indicator returns the predicate indicator "functor/arity" for callable
// terms, and a kind-specific tag otherwise.
func (t *Term) Indicator() string {
	if t.IsCallable() {
		return t.Functor + "/" + strconv.Itoa(len(t.Args))
	}
	return t.Kind.String()
}

// Equal reports structural equality of two terms.
func (t *Term) Equal(o *Term) bool {
	if t == o {
		return true
	}
	if t == nil || o == nil || t.Kind != o.Kind {
		return false
	}
	switch t.Kind {
	case Var, Atom, Str:
		return t.Functor == o.Functor
	case Int:
		return t.Int == o.Int
	case Float:
		return t.float() == o.float() // not the bits: -0.0 equals 0.0, NaN nothing
	case Compound:
		if t.Functor != o.Functor || len(t.Args) != len(o.Args) {
			return false
		}
	case List:
		if len(t.Args) != len(o.Args) {
			return false
		}
	}
	for i, a := range t.Args {
		if !a.Equal(o.Args[i]) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of t. Because Terms are treated as immutable,
// Clone is only needed when a caller wants to build a derived term by
// editing the copy in place before publishing it.
func (t *Term) Clone() *Term {
	if t == nil {
		return nil
	}
	c := *t
	if len(t.Args) > 0 {
		c.Args = make([]*Term, len(t.Args))
		for i, a := range t.Args {
			c.Args[i] = a.Clone()
		}
	}
	return &c
}

// IsGround reports whether t contains no variables.
func (t *Term) IsGround() bool {
	if t.Kind == Var {
		return false
	}
	for _, a := range t.Args {
		if !a.IsGround() {
			return false
		}
	}
	return true
}

// Vars appends the names of variables occurring in t to dst, in
// left-to-right first-occurrence order, skipping duplicates already in seen.
func (t *Term) vars(dst []string, seen map[string]bool) []string {
	if t.Kind == Var {
		if !seen[t.Functor] {
			seen[t.Functor] = true
			dst = append(dst, t.Functor)
		}
		return dst
	}
	for _, a := range t.Args {
		dst = a.vars(dst, seen)
	}
	return dst
}

// Vars returns the variable names occurring in t in first-occurrence order.
func (t *Term) Vars() []string { return t.vars(nil, map[string]bool{}) }

// Walk calls fn for t and every sub-term, pre-order. If fn returns false the
// sub-terms of the current node are skipped.
func (t *Term) Walk(fn func(*Term) bool) {
	if !fn(t) {
		return
	}
	for _, a := range t.Args {
		a.Walk(fn)
	}
}

// Number returns the numeric value of t and true if t is Int or Float.
func (t *Term) Number() (float64, bool) {
	switch t.Kind {
	case Int:
		return float64(t.Int), true
	case Float:
		return t.float(), true
	}
	return 0, false
}

// Compare imposes a total order on ground terms (standard order of terms:
// numbers < atoms < strings < compounds ordered by arity, functor, args).
// Variables sort before everything, by name.
func Compare(a, b *Term) int {
	ra, rb := orderRank(a), orderRank(b)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch a.Kind {
	case Var:
		return strings.Compare(a.Functor, b.Functor)
	case Int, Float:
		na, _ := a.Number()
		nb, _ := b.Number()
		switch {
		case na < nb:
			return -1
		case na > nb:
			return 1
		}
		return 0
	case Atom, Str:
		return strings.Compare(a.Functor, b.Functor)
	default: // Compound, List
		if d := len(a.Args) - len(b.Args); d != 0 {
			if d < 0 {
				return -1
			}
			return 1
		}
		fa, fb := a.Functor, b.Functor
		if a.Kind == List {
			fa, fb = "[]", "[]"
		}
		if d := strings.Compare(fa, fb); d != 0 {
			return d
		}
		for i := range a.Args {
			if d := Compare(a.Args[i], b.Args[i]); d != 0 {
				return d
			}
		}
		return 0
	}
}

func orderRank(t *Term) int {
	switch t.Kind {
	case Var:
		return 0
	case Int, Float:
		return 1
	case Atom:
		return 2
	case Str:
		return 3
	default:
		return 4
	}
}

// isInfix reports whether t prints infix, and its operator's precedence.
func isInfix(t *Term) (prec int, ok bool) {
	if t.Kind == Compound && len(t.Args) == 2 {
		op, ok := Operator(t.Functor)
		return op.Prec, ok
	}
	return 0, false
}

// String renders t in the concrete RTEC dialect accepted by internal/parser.
// The text is built in a stack buffer and copied out once: the common term
// (an event atom, an FVP key) costs one allocation of exactly its length.
func (t *Term) String() string {
	var buf [128]byte
	return string(t.appendText(buf[:0], nil))
}

// AppendText appends the rendering String returns to b.
func (t *Term) AppendText(b []byte) []byte { return t.appendText(b, nil) }

// plainAtom reports whether an atom name can be printed without quotes: a
// lower-case letter followed by identifier characters. Operator names used
// as standalone atoms need quoting, since they only parse in infix position.
func plainAtom(name string) bool {
	if name == "" {
		return false
	}
	r := rune(name[0])
	if !unicode.IsLower(r) {
		return false
	}
	for _, c := range name {
		if c != '_' && !unicode.IsLetter(c) && !unicode.IsDigit(c) {
			return false
		}
	}
	return true
}

func appendAtomName(b []byte, name string) []byte {
	if plainAtom(name) {
		return append(b, name...)
	}
	b = append(b, '\'')
	b = append(b, name...)
	return append(b, '\'')
}

// appendText appends the rendering of t to b. With a nil vars a variable
// prints its name; otherwise it prints "_<n>", n being the 1-based position of
// its name in *vars, which grows by every name not seen before (see
// Clause.AppendCanonical).
func (t *Term) appendText(b []byte, vars *[]string) []byte {
	switch t.Kind {
	case Var:
		if vars == nil {
			return append(b, t.Functor...)
		}
		n := 0
		for n < len(*vars) && (*vars)[n] != t.Functor {
			n++
		}
		if n == len(*vars) {
			*vars = append(*vars, t.Functor)
		}
		b = append(b, '_')
		b = strconv.AppendInt(b, int64(n+1), 10)
	case Atom:
		b = appendAtomName(b, t.Functor)
	case Int:
		b = strconv.AppendInt(b, t.Int, 10)
	case Float:
		b = appendFloat(b, t.float())
	case Str:
		b = strconv.AppendQuote(b, t.Functor)
	case List:
		b = append(b, '[')
		for i, a := range t.Args {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = a.appendText(b, vars)
		}
		b = append(b, ']')
	case Compound:
		if prec, ok := isInfix(t); ok {
			for i, a := range t.Args {
				if i == 1 {
					if t.Functor == "=" {
						b = append(b, '=')
					} else {
						b = append(b, ' ')
						b = append(b, t.Functor...)
						b = append(b, ' ')
					}
				}
				paren := infixArgNeedsParens(a, prec, i == 1)
				if paren {
					b = append(b, '(')
				}
				b = a.appendText(b, vars)
				if paren {
					b = append(b, ')')
				}
			}
			return b
		}
		if t.Functor == "not" && len(t.Args) == 1 {
			b = append(b, "not "...)
			return t.Args[0].appendText(b, vars)
		}
		b = appendAtomName(b, t.Functor)
		b = append(b, '(')
		for i, a := range t.Args {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = a.appendText(b, vars)
		}
		b = append(b, ')')
	}
	return b
}

// infixArgNeedsParens reports whether operand a of an infix term must be
// parenthesised, which is only when the parse would otherwise regroup it:
// looser-binding children always, and equal-precedence children on the right
// of a left-associative operator or anywhere under a non-associative
// comparison.
func infixArgNeedsParens(a *Term, parentPrec int, right bool) bool {
	childPrec, ok := isInfix(a)
	return ok && (childPrec < parentPrec ||
		(childPrec == parentPrec && (right || parentPrec == 1)))
}

// appendFloat renders a float so it parses back as a float: integral values
// keep a ".0" suffix.
func appendFloat(b []byte, v float64) []byte {
	n := len(b)
	b = strconv.AppendFloat(b, v, 'g', -1, 64)
	if bytes.IndexAny(b[n:], ".eE") < 0 {
		b = append(b, ".0"...)
	}
	return b
}

// SortTerms sorts a slice of terms in the standard order, in place.
func SortTerms(ts []*Term) {
	sort.Slice(ts, func(i, j int) bool { return Compare(ts[i], ts[j]) < 0 })
}

// Format implements fmt.Formatter-friendly output via String.
func (t *Term) Format(f fmt.State, verb rune) { fmt.Fprint(f, t.String()) }
