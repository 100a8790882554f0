package lang

// Bindings is the binding store of slot-numbered variables (see VarTable).
// Unify binds in place and records every bound slot on a trail, so a caller
// backtracks by undoing to a saved Mark instead of copying the store. Bound
// terms may themselves contain variables bound elsewhere in the store; Walk
// and Resolve follow such chains. The zero value (and a nil *Bindings) is a
// store with no slots, good for terms without numbered variables; Reset
// sizes it. A Bindings is not safe for concurrent use.
//
// Only the variables numbered into the store's slot space can be bound. A
// variable without a slot — one in a term that reached the store as data,
// such as a non-ground input event — is a constant to the store: it is never
// bound, unifies only with a variable of its own name, and keeps the term it
// occurs in non-ground.
type Bindings struct {
	vals  []*Term // by slot; nil means unbound
	trail []int32 // bound slots, in binding order
}

// Reset empties the store and sizes it for n slots, keeping its memory.
func (b *Bindings) Reset(n int) {
	b.Undo(0)
	if n > cap(b.vals) {
		b.vals = make([]*Term, n)
	}
	b.vals = b.vals[:n]
}

// Mark returns the current trail position, for Undo.
func (b *Bindings) Mark() int { return len(b.trail) }

// Undo removes every binding made since the trail was at mark.
func (b *Bindings) Undo(mark int) {
	for _, s := range b.trail[mark:] {
		b.vals[s] = nil
	}
	b.trail = b.trail[:mark]
}

// Snapshot returns a copy of the store's slots, for Load.
func (b *Bindings) Snapshot() []*Term { return append([]*Term(nil), b.vals...) }

// Load replaces the store's contents with a Snapshot.
func (b *Bindings) Load(vals []*Term) {
	b.Reset(len(vals))
	for s, v := range vals {
		if v != nil {
			b.vals[s] = v
			b.trail = append(b.trail, int32(s))
		}
	}
}

// BindSlot binds slot s to t. It is Unify of the slot's variable with t for
// a caller that knows, without looking, what Unify would find: the slot is
// unbound and t holds no variable of the store's slot space (so there is
// nothing to walk and the occurs check passes).
func (b *Bindings) BindSlot(s int, t *Term) {
	b.vals[s] = t
	b.trail = append(b.trail, int32(s))
}

func (b *Bindings) bind(v, t *Term) { b.BindSlot(int(v.Int-1), t) }

// Walk dereferences t while it is a bound variable.
func (b *Bindings) Walk(t *Term) *Term {
	if b == nil {
		return t
	}
	for t.Kind == Var && t.Int != 0 {
		v := b.vals[t.Int-1]
		if v == nil {
			return t
		}
		t = v
	}
	return t
}

// Resolve applies the bindings to t, returning a term in which every bound
// variable has been replaced by its (recursively resolved) binding.
func (b *Bindings) Resolve(t *Term) *Term {
	t = b.Walk(t)
	if len(t.Args) == 0 {
		return t
	}
	// Terms are immutable, so unchanged subtrees are returned as-is; the
	// argument slice is only copied on the first argument that actually
	// resolves to something new. Resolving a ground term allocates nothing.
	var args []*Term
	for i, a := range t.Args {
		r := b.Resolve(a)
		if args == nil {
			if r == a {
				continue
			}
			args = make([]*Term, len(t.Args))
			copy(args, t.Args[:i])
		}
		args[i] = r
	}
	if args == nil {
		return t
	}
	n := *t
	n.Args = args
	return &n
}

// IsGround reports whether t contains no unbound variable.
func (b *Bindings) IsGround(t *Term) bool {
	t = b.Walk(t)
	if t.Kind == Var {
		return false
	}
	for _, a := range t.Args {
		if !b.IsGround(a) {
			return false
		}
	}
	return true
}

// Equal reports whether t, under the bindings, is structurally equal to o
// (which is taken as written): b.Resolve(t).Equal(o) without building the
// resolved term.
func (b *Bindings) Equal(t, o *Term) bool {
	t = b.Walk(t)
	if len(t.Args) == 0 || len(t.Args) != len(o.Args) {
		return t.Equal(o)
	}
	if t.Kind != o.Kind || t.Functor != o.Functor {
		return false
	}
	for i, a := range t.Args {
		if !b.Equal(a, o.Args[i]) {
			return false
		}
	}
	return true
}

// bindable reports whether t, already walked, is an unbound variable of the
// store's slot space.
func bindable(t *Term) bool { return t.Kind == Var && t.Int != 0 }

// sameVar reports whether two unbound variables are the same variable.
func sameVar(x, y *Term) bool { return x.Int == y.Int && x.Functor == y.Functor }

// occurs reports whether variable v occurs in t under the bindings — the
// occurs check that keeps the store acyclic (binding X to f(X) would make
// Resolve diverge).
func (b *Bindings) occurs(v, t *Term) bool {
	t = b.Walk(t)
	if t.Kind == Var {
		return sameVar(v, t)
	}
	for _, a := range t.Args {
		if b.occurs(v, a) {
			return true
		}
	}
	return false
}

// Unify attempts to unify x and y, extending the store in place, and reports
// whether it succeeded; a failed attempt leaves no binding behind.
// Unification is performed with the occurs check, so the store is always
// acyclic.
func (b *Bindings) Unify(x, y *Term) bool {
	mark := b.Mark()
	if b.unify(x, y) {
		return true
	}
	b.Undo(mark)
	return false
}

func (b *Bindings) unify(x, y *Term) bool {
	x, y = b.Walk(x), b.Walk(y)
	if bindable(x) {
		if y.Kind == Var && sameVar(x, y) {
			return true
		}
		if b.occurs(x, y) {
			return false
		}
		b.bind(x, y)
		return true
	}
	if bindable(y) {
		if b.occurs(y, x) {
			return false
		}
		b.bind(y, x)
		return true
	}
	if x.Kind != y.Kind {
		// Permit int/float numeric identity (5 unifies with 5.0).
		nx, xok := x.Number()
		ny, yok := y.Number()
		return xok && yok && nx == ny
	}
	switch x.Kind {
	case Var, Atom: // a Var here has no slot: a constant
		return x.Functor == y.Functor
	case Int:
		return x.Int == y.Int
	case Float:
		return x.Float == y.Float
	case Str:
		return x.Text == y.Text
	case Compound:
		if x.Functor != y.Functor || len(x.Args) != len(y.Args) {
			return false
		}
	case List:
		if len(x.Args) != len(y.Args) {
			return false
		}
	}
	for i := range x.Args {
		if !b.unify(x.Args[i], y.Args[i]) {
			return false
		}
	}
	return true
}

// RenameApart returns a copy of the clause whose variables have been renamed
// with the given suffix, so that a rule's variables cannot be mistaken for
// those of another clause evaluated with it (or of a query). The engine
// renames each rule once, when it compiles it; the suffixed names are the
// ones its warnings and non-ground results print.
func (c *Clause) RenameApart(suffix string) *Clause {
	return c.mapVars(func(v *Term) *Term { return NewVar(v.Functor + suffix) })
}

// mapVars returns a copy of the clause with every variable occurrence
// replaced by fn's result, head first, then the body in order.
func (c *Clause) mapVars(fn func(*Term) *Term) *Clause {
	n := &Clause{Head: mapVars(c.Head, fn), Pos: c.Pos}
	if len(c.Body) > 0 {
		n.Body = make([]Literal, len(c.Body))
		for i, l := range c.Body {
			n.Body[i] = Literal{Neg: l.Neg, Atom: mapVars(l.Atom, fn)}
		}
	}
	return n
}

// mapVars returns t with every variable occurrence replaced by fn's result.
// Sub-terms without variables are shared, not copied.
func mapVars(t *Term, fn func(*Term) *Term) *Term {
	if t.Kind == Var {
		return fn(t)
	}
	var args []*Term
	for i, a := range t.Args {
		r := mapVars(a, fn)
		if args == nil {
			if r == a {
				continue
			}
			args = make([]*Term, len(t.Args))
			copy(args, t.Args[:i])
		}
		args[i] = r
	}
	if args == nil {
		return t
	}
	n := *t
	n.Args = args
	return &n
}
