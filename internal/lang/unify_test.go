package lang

import (
	"math/rand"
	"testing"
)

// numbered numbers the terms through one VarTable and returns them with a
// binding store sized for their variables.
func numbered(ts ...*Term) ([]*Term, *Bindings) {
	var vt VarTable
	out := make([]*Term, len(ts))
	for i, t := range ts {
		out[i] = vt.Number(t)
	}
	b := &Bindings{}
	b.Reset(vt.Len())
	return out, b
}

// unifies reports whether a and b unify from an empty store.
func unifies(a, b *Term) bool {
	ts, s := numbered(a, b)
	return s.Unify(ts[0], ts[1])
}

func TestUnifyBasics(t *testing.T) {
	b := NewCompound("entersArea", NewAtom("v42"), NewAtom("a1"))
	ts, s := numbered(NewCompound("entersArea", NewVar("Vl"), NewVar("Area")))
	a := ts[0]
	if !s.Unify(a, b) {
		t.Fatal("unification failed")
	}
	if got := s.Resolve(a); !got.Equal(b) {
		t.Fatalf("Resolve = %s, want %s", got, b)
	}
}

func TestUnifyOccursSharedVariable(t *testing.T) {
	a := NewCompound("f", NewVar("X"), NewVar("X"))
	if unifies(a, NewCompound("f", NewAtom("a"), NewAtom("b"))) {
		t.Fatal("f(X,X) must not unify with f(a,b)")
	}
	if !unifies(a, NewCompound("f", NewAtom("a"), NewAtom("a"))) {
		t.Fatal("f(X,X) must unify with f(a,a)")
	}
}

func TestUnifyFunctorArityMismatch(t *testing.T) {
	if unifies(NewCompound("f", NewInt(1)), NewCompound("g", NewInt(1))) {
		t.Fatal("different functors unified")
	}
	if unifies(NewCompound("f", NewInt(1)), NewCompound("f", NewInt(1), NewInt(2))) {
		t.Fatal("different arities unified")
	}
}

func TestUnifyNumericIdentity(t *testing.T) {
	if !unifies(NewInt(5), NewFloat(5)) {
		t.Fatal("5 and 5.0 should unify numerically")
	}
	if unifies(NewInt(5), NewFloat(5.5)) {
		t.Fatal("5 and 5.5 unified")
	}
}

func TestUnifyVariableChains(t *testing.T) {
	ts, s := numbered(NewVar("X"), NewVar("Y"))
	x, y := ts[0], ts[1]
	if !s.Unify(x, y) {
		t.Fatal("var-var unification failed")
	}
	if !s.Unify(y, NewAtom("a")) {
		t.Fatal("binding chained var failed")
	}
	if got := s.Resolve(x); !got.Equal(NewAtom("a")) {
		t.Fatalf("Resolve(X) = %s, want a", got)
	}
}

// TestUnifyFailureLeavesNoBinding is what UnifyInto's copy used to
// guarantee: a failed attempt, however far it got, changes nothing, and
// earlier bindings survive it.
func TestUnifyFailureLeavesNoBinding(t *testing.T) {
	ts, s := numbered(NewVar("Z"), NewCompound("f", NewVar("X"), NewVar("Y"), NewAtom("a")))
	z, fxy := ts[0], ts[1]
	if !s.Unify(z, NewAtom("z")) {
		t.Fatal("binding Z failed")
	}
	mark := s.Mark()
	if s.Unify(fxy, NewCompound("f", NewInt(1), NewInt(2), NewAtom("b"))) {
		t.Fatal("f(X,Y,a) unified with f(1,2,b)")
	}
	if s.Mark() != mark || !s.Resolve(fxy).Equal(fxy) {
		t.Fatalf("failed unification left bindings behind: %s", s.Resolve(fxy))
	}
	if !s.Resolve(z).Equal(NewAtom("z")) {
		t.Fatal("failed unification lost an earlier binding")
	}
	if !s.Unify(fxy, NewCompound("f", NewInt(1), NewInt(2), NewAtom("a"))) {
		t.Fatal("f(X,Y,a) did not unify with f(1,2,a)")
	}
	s.Undo(mark)
	if !s.Resolve(fxy).Equal(fxy) || !s.Resolve(z).Equal(NewAtom("z")) {
		t.Fatal("Undo did not restore the marked state")
	}
}

func TestUnifyLists(t *testing.T) {
	ts, s := numbered(NewList(NewVar("A"), NewVar("B")))
	a := ts[0]
	if !s.Unify(a, NewList(NewInt(1), NewInt(2))) {
		t.Fatal("list unification failed")
	}
	if !s.Resolve(a.Args[1]).Equal(NewInt(2)) {
		t.Fatal("list element binding wrong")
	}
	if unifies(NewList(NewInt(1)), NewList(NewInt(1), NewInt(2))) {
		t.Fatal("lists of different length unified")
	}
}

func TestRenameApart(t *testing.T) {
	c := &Clause{
		Head: NewCompound("p", NewVar("X")),
		Body: []Literal{Pos(NewCompound("q", NewVar("X"), NewVar("Y")))},
	}
	r := c.RenameApart("_1")
	if r.Head.Args[0].Functor != "X_1" {
		t.Fatalf("head var = %q", r.Head.Args[0].Functor)
	}
	if r.Body[0].Atom.Args[1].Functor != "Y_1" {
		t.Fatalf("body var = %q", r.Body[0].Atom.Args[1].Functor)
	}
	// Original untouched.
	if c.Head.Args[0].Functor != "X" {
		t.Fatal("RenameApart mutated original")
	}
}

// TestNumberClause: numbering keeps names (so a numbered clause prints like
// its source), gives one slot per name across head and body, and shares
// ground sub-terms.
func TestNumberClause(t *testing.T) {
	ground := NewCompound("g", NewAtom("a"))
	c := &Clause{
		Head: NewCompound("p", NewVar("X"), ground),
		Body: []Literal{Pos(NewCompound("q", NewVar("Y"), NewVar("X"))), Neg(NewCompound("r", NewVar("Y")))},
	}
	var vt VarTable
	n := vt.NumberClause(c)
	if n.String() != c.String() {
		t.Fatalf("numbered clause prints %q, source %q", n, c)
	}
	if vt.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (X, Y)", vt.Len())
	}
	if x1, x2 := n.Head.Args[0], n.Body[0].Atom.Args[1]; x1.Int != 1 || x2.Int != 1 {
		t.Fatalf("X slots %d, %d, want 1, 1", x1.Int, x2.Int)
	}
	if y1, y2 := n.Body[0].Atom.Args[0], n.Body[1].Atom.Args[0]; y1.Int != 2 || y2.Int != 2 || !n.Body[1].Neg {
		t.Fatalf("Y slots %d, %d, want 2, 2 under a kept negation", y1.Int, y2.Int)
	}
	if n.Head.Args[1] != ground {
		t.Fatal("numbering copied a ground sub-term")
	}
	if c.Head.Args[0].Int != 0 {
		t.Fatal("numbering mutated the source clause")
	}
	// Unnumbered undoes it, sharing what holds no variable.
	u := Unnumbered(n.Head)
	if u.Args[0].Int != 0 || u.String() != c.Head.String() || u.Args[1] != ground || Unnumbered(ground) != ground {
		t.Fatalf("Unnumbered(%s) = %s with slot %d", n.Head, u, u.Args[0].Int)
	}
	if n.Head.Args[0].Int != 1 {
		t.Fatal("Unnumbered mutated the numbered term")
	}
}

func TestResolveSharesUnchangedSubtrees(t *testing.T) {
	ground := NewCompound("g", NewAtom("a"))
	ts, s := numbered(NewCompound("f", ground, NewVar("X")))
	tm := ts[0]
	s.Unify(tm.Args[1], NewInt(1))
	r := s.Resolve(tm)
	if r.Args[0] != ground {
		t.Fatal("Resolve copied an unchanged ground subtree")
	}
}

func TestUnifyOccursCheck(t *testing.T) {
	if unifies(NewVar("X"), NewCompound("f", NewVar("X"))) {
		t.Fatal("X must not unify with f(X)")
	}
	// Indirect cycle: X = Y, Y = f(X).
	ts, s := numbered(NewVar("X"), NewVar("Y"), NewCompound("f", NewVar("X")))
	if !s.Unify(ts[0], ts[1]) {
		t.Fatal("var-var unification failed")
	}
	if s.Unify(ts[1], ts[2]) {
		t.Fatal("indirect cycle accepted")
	}
}

// TestUnifySlotlessVariableIsConstant: a variable that was never numbered
// into the store (one inside a non-ground input event, say) is data. It is
// never bound, it unifies with a variable of its own name only, a numbered
// variable can be bound to it, and the term holding it stays non-ground.
func TestUnifySlotlessVariableIsConstant(t *testing.T) {
	free := NewVar("Area")
	ts, s := numbered(NewCompound("enters", NewVar("V"), NewAtom("a1")), NewCompound("enters", NewVar("V"), NewVar("A")))
	event := NewCompound("enters", NewAtom("v2"), free)
	if s.Unify(ts[0], event) || s.Mark() != 0 {
		t.Fatal("a slot-less variable unified with a constant, or the failure left a binding")
	}
	if new(Bindings).Unify(free, NewAtom("a1")) || new(Bindings).Unify(NewAtom("a1"), free) || new(Bindings).Unify(free, NewVar("Other")) {
		t.Fatal("a slot-less variable unified with something other than itself")
	}
	if !new(Bindings).Unify(free, NewVar("Area")) {
		t.Fatal("a slot-less variable does not unify with itself")
	}
	if !s.Unify(ts[1], event) {
		t.Fatal("numbered variables did not bind to the event's arguments")
	}
	if got := s.Resolve(ts[1]); got.String() != "enters(v2, Area)" || s.IsGround(ts[1]) {
		t.Fatalf("resolved %s (ground: %v), want the non-ground enters(v2, Area)", got, s.IsGround(ts[1]))
	}
}

// TestBoundViews: Equal, IsGround, Hash and the interner's lookups see a term through the store exactly as they would see its
// resolved copy.
func TestBoundViews(t *testing.T) {
	ts, s := numbered(FVP(NewCompound("withinArea", NewVar("Vl"), NewVar("Area")), NewAtom("true")))
	fvp := ts[0]
	ground := FVP(NewCompound("withinArea", NewAtom("v1"), NewAtom("fishing")), NewAtom("true"))
	in := NewInterner()
	id := in.ID(ground, nil)
	if s.IsGround(fvp) || s.Equal(fvp, ground) {
		t.Fatal("unbound FVP reported ground or equal")
	}
	if _, ok := in.Lookup(fvp, s); ok {
		t.Fatal("unbound FVP found in the interner")
	}
	if !s.Unify(fvp, ground) {
		t.Fatal("unification failed")
	}
	if !s.IsGround(fvp) || !s.Equal(fvp, ground) || Hash(fvp, s) != Hash(ground, nil) {
		t.Fatal("bound FVP does not look like its resolved copy")
	}
	if got, ok := in.Lookup(fvp, s); !ok || got != id || in.ID(fvp, s) != id {
		t.Fatalf("Lookup = %d, %v, want %d", got, ok, id)
	}
	if in.Len() != 1 {
		t.Fatalf("ID interned a second copy: Len = %d", in.Len())
	}
	// A non-ground term interns under its variable names, bound or not.
	s.Undo(0)
	nid := in.ID(fvp, s)
	if nid == id || in.StringOf(nid) != "withinArea(Vl, Area)=true" || in.ID(s.Resolve(fvp), nil) != nid {
		t.Fatalf("non-ground intern: id %d, %q", nid, in.StringOf(nid))
	}
	// The stored copy has shed the slots, so reading it through an unrelated
	// store cannot pick up that store's bindings.
	var other Bindings
	other.Reset(2)
	if !other.Unify((&VarTable{}).Number(NewVar("Q")), NewAtom("wrong")) {
		t.Fatal("setup: binding slot 1 of the other store failed")
	}
	if got := other.Resolve(in.TermOf(nid)).String(); got != "withinArea(Vl, Area)=true" {
		t.Fatalf("interned non-ground term read through a foreign store as %s", got)
	}
}

// TestTrailRoundTrip is the property the evaluator's backtracking rests on:
// over random sequences of unifications, marks and undos, undoing to a mark
// restores exactly the binding state the store had when the mark was taken —
// and a failed unification is such a no-op by itself.
func TestTrailRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		var vt VarTable
		vars := []*Term{vt.Number(NewVar("X")), vt.Number(NewVar("Y")), vt.Number(NewVar("Z"))}
		var s Bindings
		s.Reset(vt.Len())
		state := func() string {
			out := ""
			for _, v := range vars {
				out += s.Resolve(v).String() + ";"
			}
			return out
		}
		type saved struct {
			mark  int
			state string
		}
		var stack []saved
		for step := 0; step < 40; step++ {
			switch r.Intn(4) {
			case 0:
				stack = append(stack, saved{s.Mark(), state()})
			case 1:
				if n := len(stack); n > 0 {
					top := stack[n-1]
					stack = stack[:n-1]
					s.Undo(top.mark)
					if got := state(); got != top.state {
						t.Fatalf("seed %d step %d: after Undo state %q, at Mark %q", seed, step, got, top.state)
					}
				}
			default:
				before, mark := state(), s.Mark()
				a, b := vt.Number(genPropTerm(r, 2)), vt.Number(genPropTerm(r, 2))
				if !s.Unify(a, b) && (state() != before || s.Mark() != mark) {
					t.Fatalf("seed %d step %d: failed Unify(%s, %s) changed the store: %q -> %q", seed, step, a, b, before, state())
				}
			}
		}
		s.Reset(vt.Len())
		if got := state(); got != "X;Y;Z;" {
			t.Fatalf("seed %d: Reset left %q", seed, got)
		}
	}
}

// TestAppendCanonical: the canonical rendering does not show what a clause's
// variables were called, still shows which occurrences are one variable, and
// carries its numbering into a second clause when handed the names back.
func TestAppendCanonical(t *testing.T) {
	render := func(head, cond *Term) string {
		key, _ := (&Clause{Head: head, Body: []Literal{Pos(cond), Neg(cond)}}).AppendCanonical(nil, nil)
		return string(key)
	}
	xy := render(NewCompound("p", NewVar("X"), NewVar("Y")), NewCompound("q", NewVar("Y"), NewVar("X")))
	ab := render(NewCompound("p", NewVar("A"), NewVar("B")), NewCompound("q", NewVar("B"), NewVar("A")))
	if want := "p(_1, _2) :-\n    q(_2, _1),\n    not q(_2, _1)."; xy != want || ab != want {
		t.Fatalf("AppendCanonical renders %q and %q, want %q", xy, ab, want)
	}
	if xx := render(NewCompound("p", NewVar("X"), NewVar("X")), NewCompound("q", NewVar("X"), NewVar("X"))); xx == xy {
		t.Fatal("p(X, X) and p(X, Y) render alike")
	}
	// A variable that happens to be called like a canonical name is renamed
	// like any other.
	if got := render(NewCompound("p", NewVar("_2"), NewVar("_1")), NewCompound("q", NewVar("_1"), NewVar("_2"))); got != xy {
		t.Fatalf("variables named _2 and _1 render %q, want %q", got, xy)
	}
	first := &Clause{Head: NewCompound("p", NewVar("X"))}
	second := &Clause{Head: NewCompound("g", NewVar("Y"), NewVar("X"))}
	key, vars := first.AppendCanonical([]byte("kept "), make([]string, 0, 4))
	key, vars = second.AppendCanonical(key, vars)
	if string(key) != "kept p(_1).g(_2, _1)." || len(vars) != 2 || vars[0] != "X" || vars[1] != "Y" {
		t.Fatalf("continued numbering renders %q with names %v", key, vars)
	}
}
