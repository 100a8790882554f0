package lang

import "strings"

// Literal is a possibly negated body condition.
type Literal struct {
	Neg  bool
	Atom *Term
}

// Term returns the literal as a plain term, wrapping negated literals in a
// unary 'not' compound. This is the representation used when comparing
// literals in the similarity metric and when building variable-instance
// paths: a negated condition is a different expression from its positive
// counterpart.
func (l Literal) Term() *Term {
	if l.Neg {
		return NewCompound("not", l.Atom)
	}
	return l.Atom
}

// String renders the literal in concrete syntax.
func (l Literal) String() string {
	if l.Neg {
		return "not " + l.Atom.String()
	}
	return l.Atom.String()
}

// Pos returns a positive literal holding atom.
func Pos(atom *Term) Literal { return Literal{Atom: atom} }

// Neg returns a negated literal holding atom.
func Neg(atom *Term) Literal { return Literal{Neg: true, Atom: atom} }

// Clause is a rule Head :- Body, or a fact when Body is empty.
type Clause struct {
	Head *Term
	Body []Literal
	Pos  Position // source position of the clause head when parsed; zero otherwise
}

// IsFact reports whether the clause has an empty body.
func (c *Clause) IsFact() bool { return len(c.Body) == 0 }

// String renders the clause in concrete syntax, one condition per line for
// rules, matching the layout used in RTEC event-description files.
func (c *Clause) String() string { return string(c.appendText(nil, nil)) }

// AppendText appends the rendering String returns to dst.
func (c *Clause) AppendText(dst []byte) []byte { return c.appendText(dst, nil) }

// AppendCanonical appends the clause's rendering with every variable named
// after its first occurrence, head first ("_1", "_2", ...): two clauses that
// differ only in what their variables are called append the same bytes, and
// two that differ in anything else do not. vars is the memory for the names
// met so far and is returned grown: nil or a reused vars[:0] numbers a clause
// on its own, the slice a previous call returned continues its numbering
// into a clause that shares the first one's variables.
func (c *Clause) AppendCanonical(dst []byte, vars []string) ([]byte, []string) {
	dst = c.appendText(dst, &vars)
	return dst, vars
}

func (c *Clause) appendText(b []byte, vars *[]string) []byte {
	b = c.Head.appendText(b, vars)
	if len(c.Body) > 0 {
		b = append(b, " :-\n"...)
		for i, l := range c.Body {
			b = append(b, "    "...)
			if l.Neg {
				b = append(b, "not "...)
			}
			b = l.Atom.appendText(b, vars)
			if i < len(c.Body)-1 {
				b = append(b, ",\n"...)
			}
		}
	}
	return append(b, '.')
}

// Vars returns the variable names occurring in the clause, head first, in
// first-occurrence order.
func (c *Clause) Vars() []string {
	seen := map[string]bool{}
	out := c.Head.vars(nil, seen)
	for _, l := range c.Body {
		out = l.Atom.vars(out, seen)
	}
	return out
}

// Clone returns a deep copy of the clause.
func (c *Clause) Clone() *Clause {
	n := &Clause{Head: c.Head.Clone(), Pos: c.Pos}
	if len(c.Body) > 0 {
		n.Body = make([]Literal, len(c.Body))
		for i, l := range c.Body {
			n.Body[i] = Literal{Neg: l.Neg, Atom: l.Atom.Clone()}
		}
	}
	return n
}

// HeadKind classifies what a clause defines within an event description.
type HeadKind int

const (
	// KindFact is a background fact (atemporal knowledge or a declaration).
	KindFact HeadKind = iota
	// KindInitiatedAt is an initiation rule of a simple FVP.
	KindInitiatedAt
	// KindTerminatedAt is a termination rule of a simple FVP.
	KindTerminatedAt
	// KindHoldsFor is the defining rule of a statically determined FVP.
	KindHoldsFor
	// KindBackgroundRule is a non-temporal auxiliary rule.
	KindBackgroundRule
)

func (k HeadKind) String() string {
	switch k {
	case KindFact:
		return "fact"
	case KindInitiatedAt:
		return "initiatedAt"
	case KindTerminatedAt:
		return "terminatedAt"
	case KindHoldsFor:
		return "holdsFor"
	case KindBackgroundRule:
		return "backgroundRule"
	}
	return "unknown"
}

// Kind classifies the clause by inspecting its head functor.
func (c *Clause) Kind() HeadKind {
	if k := ruleHead(c.Head.Functor); k != KindFact && c.Head.Kind == Compound && len(c.Head.Args) == 2 {
		return k
	}
	if c.IsFact() {
		return KindFact
	}
	return KindBackgroundRule
}

// HeadFVP extracts the fluent-value pair term (the '='(F,V) compound) from a
// temporal rule head, or nil when the clause is not a temporal rule or its
// head is malformed. The second result is the fluent term F itself.
func (c *Clause) HeadFVP() (fvp, fluent *Term) {
	switch c.Kind() {
	case KindInitiatedAt, KindTerminatedAt, KindHoldsFor:
		if fl := fluentOf(c.Head.Args[0]); fl != nil {
			return c.Head.Args[0], fl
		}
	}
	return nil, nil
}

// Anchor returns the index of the body condition that anchors the
// event-driven evaluation of a simple-fluent rule — its first positive
// happensAt(E, T) condition — or -1 when the body has none.
func (c *Clause) Anchor() int {
	for i, l := range c.Body {
		if !l.Neg && l.Atom.Functor == "happensAt" && len(l.Atom.Args) == 2 {
			return i
		}
	}
	return -1
}

// EventDescription is a parsed RTEC event description: the full set of
// clauses (temporal rules, background rules, facts and declarations) that
// formalise the activities of a domain.
type EventDescription struct {
	Clauses []*Clause
}

// String renders the event description as concrete syntax, clauses separated
// by blank lines.
func (ed *EventDescription) String() string {
	parts := make([]string, len(ed.Clauses))
	for i, c := range ed.Clauses {
		parts[i] = c.String()
	}
	return strings.Join(parts, "\n\n") + "\n"
}

// Rules returns the temporal rules (initiatedAt/terminatedAt/holdsFor heads).
func (ed *EventDescription) Rules() []*Clause {
	var out []*Clause
	for _, c := range ed.Clauses {
		switch c.Kind() {
		case KindInitiatedAt, KindTerminatedAt, KindHoldsFor:
			out = append(out, c)
		}
	}
	return out
}

// Facts returns the fact clauses (background knowledge and declarations).
func (ed *EventDescription) Facts() []*Clause {
	var out []*Clause
	for _, c := range ed.Clauses {
		if c.Kind() == KindFact {
			out = append(out, c)
		}
	}
	return out
}

// BackgroundRules returns the non-temporal auxiliary rules.
func (ed *EventDescription) BackgroundRules() []*Clause {
	var out []*Clause
	for _, c := range ed.Clauses {
		if c.Kind() == KindBackgroundRule {
			out = append(out, c)
		}
	}
	return out
}

// Clone returns a deep copy of the event description.
func (ed *EventDescription) Clone() *EventDescription {
	n := &EventDescription{Clauses: make([]*Clause, len(ed.Clauses))}
	for i, c := range ed.Clauses {
		n.Clauses[i] = c.Clone()
	}
	return n
}

// RulesByFluent groups the temporal rules of ed by the indicator of the
// fluent in their head FVP (e.g. "withinArea/2"). Rules with malformed heads
// are grouped under "".
func (ed *EventDescription) RulesByFluent() map[string][]*Clause {
	out := map[string][]*Clause{}
	for _, c := range ed.Rules() {
		_, fl := c.HeadFVP()
		key := ""
		if fl != nil {
			key = fl.Indicator()
		}
		out[key] = append(out[key], c)
	}
	return out
}
