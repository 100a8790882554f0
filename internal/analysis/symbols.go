package analysis

import (
	"sort"

	"rtecgen/internal/lang"
)

// userSymbol reports whether a name is the description's to define: anything
// but a reserved word of the dialect (lang.Reserved). Reserved words are
// exempt from the symbol passes.
func userSymbol(name string) bool { return lang.Reserved(name) == lang.NotReserved }

// intervalOp reports whether a name is an interval-manipulation construct of
// statically determined fluent definitions.
func intervalOp(name string) bool { return lang.Reserved(name) == lang.IntervalOp }

// nonBindingOp reports whether a name is an infix comparison or arithmetic
// operator other than '=': such a condition binds no variable.
func nonBindingOp(name string) bool { return lang.Reserved(name) == lang.InfixOp && name != "=" }

// definition records how one user symbol is defined across the description.
type definition struct {
	name   string
	simple []*lang.Clause // initiatedAt/terminatedAt rules for the fluent
	sd     []*lang.Clause // holdsFor rules for the fluent
	aux    []*lang.Clause // background (non-temporal) rules with this head
	facts  []*lang.Clause // facts with this head
}

// clauses returns every defining clause in source order.
func (d *definition) clauses() []*lang.Clause {
	out := make([]*lang.Clause, 0, len(d.simple)+len(d.sd)+len(d.aux)+len(d.facts))
	out = append(out, d.simple...)
	out = append(out, d.sd...)
	out = append(out, d.aux...)
	out = append(out, d.facts...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Pos.Before(out[j].Pos) })
	return out
}

func (d *definition) firstPos() lang.Position {
	cs := d.clauses()
	if len(cs) == 0 {
		return lang.Position{}
	}
	return cs[0].Pos
}

type refKind int

const (
	refFluent refKind = iota // holdsAt/holdsFor/initiatedAt/terminatedAt over F=V
	refEvent                 // happensAt over an event term
	refPred                  // plain background predicate call
)

// reference is one use of a user symbol inside a rule body.
type reference struct {
	name   string
	kind   refKind
	neg    bool // the literal is negated
	term   *lang.Term
	clause *lang.Clause
}

// arityUse is one occurrence of a symbol in predicate position.
type arityUse struct {
	name  string
	arity int
	pos   lang.Position
}

// context is the shared state of one Analyze run: the event description
// plus lazily usable symbol, reference and arity tables.
type context struct {
	ed   *lang.EventDescription
	opts Options

	defs      map[string]*definition
	defNames  []string        // sorted
	events    map[string]bool // functors declared via inputEvent facts
	hasDecls  bool
	refs      []reference
	arityUses []arityUse
	lineOff   []int // byte offset of each line start of opts.Source
}

func newContext(ed *lang.EventDescription, opts Options) *context {
	ctx := &context{ed: ed, opts: opts, defs: map[string]*definition{}, events: map[string]bool{}}
	if opts.Source != "" {
		ctx.lineOff = lineOffsets(opts.Source)
	}
	for _, c := range ed.Clauses {
		ctx.collectClause(c)
	}
	for n := range ctx.defs {
		ctx.defNames = append(ctx.defNames, n)
	}
	sort.Strings(ctx.defNames)
	return ctx
}

func (ctx *context) def(name string) *definition {
	d, ok := ctx.defs[name]
	if !ok {
		d = &definition{name: name}
		ctx.defs[name] = d
	}
	return d
}

// collectClause files one clause into the definition, reference and arity
// tables.
func (ctx *context) collectClause(c *lang.Clause) {
	h := c.Head
	switch {
	case h.Functor == "inputEvent" && len(h.Args) == 1 && h.Args[0].IsCallable():
		// Event declaration.
		ctx.events[h.Args[0].Functor] = true
		ctx.hasDecls = true
		ctx.addArity(h.Args[0])
	case h.Functor == "grounding":
		// Grounding declaration: its argument mentions a fluent but neither
		// defines nor uses it; its body references background predicates.
		ctx.collectBody(c)
	case lang.IsRuleHead(h.Functor):
		if _, fl := c.HeadFVP(); fl != nil {
			d := ctx.def(fl.Functor)
			if h.Functor == "holdsFor" {
				d.sd = append(d.sd, c)
			} else {
				d.simple = append(d.simple, c)
			}
			ctx.addArity(fl)
		}
		ctx.collectBody(c)
	case c.IsFact():
		if userSymbol(h.Functor) {
			d := ctx.def(h.Functor)
			d.facts = append(d.facts, c)
			ctx.addArity(h)
		}
	default:
		if userSymbol(h.Functor) {
			d := ctx.def(h.Functor)
			d.aux = append(d.aux, c)
			ctx.addArity(h)
		}
		ctx.collectBody(c)
	}
}

// collectBody files the body literals of a clause into the reference and
// arity tables.
func (ctx *context) collectBody(c *lang.Clause) {
	for _, l := range c.Body {
		a := l.Atom
		if _, fl := lang.FluentRef(a); fl != nil {
			ctx.refs = append(ctx.refs, reference{name: fl.Functor, kind: refFluent, neg: l.Neg, term: fl, clause: c})
			ctx.addArity(fl)
			continue
		}
		if a.Functor == "happensAt" && len(a.Args) == 2 && a.Args[0].IsCallable() {
			ev := a.Args[0]
			ctx.refs = append(ctx.refs, reference{name: ev.Functor, kind: refEvent, neg: l.Neg, term: ev, clause: c})
			ctx.addArity(ev)
			continue
		}
		if a.IsCallable() && userSymbol(a.Functor) {
			ctx.refs = append(ctx.refs, reference{name: a.Functor, kind: refPred, neg: l.Neg, term: a, clause: c})
			ctx.addArity(a)
		}
	}
}

func (ctx *context) addArity(t *lang.Term) {
	if !userSymbol(t.Functor) {
		return
	}
	ctx.arityUses = append(ctx.arityUses, arityUse{name: t.Functor, arity: len(t.Args), pos: t.Pos})
}

// known reports whether a name is part of the provided external vocabulary.
func (ctx *context) known(name string) bool { return ctx.opts.Vocabulary[name] }

// defined reports whether the description itself gives the name a
// definition of any sort.
func (ctx *context) defined(name string) bool {
	d, ok := ctx.defs[name]
	return ok && (len(d.simple)+len(d.sd)+len(d.aux)+len(d.facts)) > 0
}
