package lang

import (
	"fmt"
	"sync"
	"testing"
)

func TestInternerStructuralIdentity(t *testing.T) {
	in := NewInterner()
	a := NewCompound("=", NewCompound("trawling", NewAtom("v1")), NewAtom("true"))
	b := NewCompound("=", NewCompound("trawling", NewAtom("v1")), NewAtom("true"))
	c := NewCompound("=", NewCompound("trawling", NewAtom("v2")), NewAtom("true"))

	if Hash(a, nil) != Hash(b, nil) {
		t.Fatalf("structurally equal terms hash differently")
	}
	ida, idb, idc := in.ID(a, nil), in.ID(b, nil), in.ID(c, nil)
	if ida != idb {
		t.Fatalf("equal terms got distinct IDs %d and %d", ida, idb)
	}
	if ida == idc {
		t.Fatalf("distinct terms share ID %d", ida)
	}
	if got, want := in.StringOf(ida), a.String(); got != want {
		t.Fatalf("StringOf = %q, want %q", got, want)
	}
	if !in.TermOf(idc).Equal(c) {
		t.Fatalf("TermOf(%d) does not round-trip", idc)
	}
	if in.Len() != 2 {
		t.Fatalf("Len = %d, want 2", in.Len())
	}
	if _, ok := in.Lookup(b, nil); !ok {
		t.Fatalf("Lookup missed an interned term")
	}
	if _, ok := in.Lookup(NewAtom("never"), nil); ok {
		t.Fatalf("Lookup found a term that was never interned")
	}
}

func TestInternerKindDiscrimination(t *testing.T) {
	in := NewInterner()
	cases := []*Term{
		NewInt(5), NewFloat(5), NewAtom("5"), NewStr("5"), NewVar("V5"),
		NewCompound("f", NewInt(5)), NewList(NewInt(5)),
	}
	seen := map[InternID]int{}
	for i, c := range cases {
		id := in.ID(c, nil)
		if prev, dup := seen[id]; dup {
			t.Fatalf("terms %v and %v (different kinds) share an ID", cases[prev], c)
		}
		seen[id] = i
	}
}

func TestInternerConcurrent(t *testing.T) {
	in := NewInterner()
	var wg sync.WaitGroup
	const goroutines, terms = 8, 64
	ids := make([][]InternID, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids[g] = make([]InternID, terms)
			for i := 0; i < terms; i++ {
				term := NewCompound("p", NewAtom(fmt.Sprintf("e%d", i)))
				ids[g][i] = in.ID(term, nil)
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := 0; i < terms; i++ {
			if ids[g][i] != ids[0][i] {
				t.Fatalf("goroutine %d got ID %d for term %d, goroutine 0 got %d", g, ids[g][i], i, ids[0][i])
			}
		}
	}
	if in.Len() != terms {
		t.Fatalf("Len = %d, want %d", in.Len(), terms)
	}
}

func TestResolveSharesGroundTerms(t *testing.T) {
	ground := NewCompound("f", NewAtom("a"), NewInt(1))
	ts, s := numbered(NewCompound("f", NewVar("X"), ground))
	mixed := ts[0]
	if got := s.Resolve(ground); got != ground {
		t.Fatalf("Resolve copied a ground term with an empty store")
	}
	s.Unify(mixed.Args[0], NewAtom("b"))
	if got := s.Resolve(ground); got != ground {
		t.Fatalf("Resolve copied a ground term unaffected by the bindings")
	}
	got := s.Resolve(mixed)
	if got == mixed {
		t.Fatalf("Resolve failed to apply a binding")
	}
	if got.Args[0].Kind != Atom || got.Args[0].Functor != "b" {
		t.Fatalf("Resolve = %s, want f(b, ...)", got)
	}
	if got.Args[1] != ground {
		t.Fatalf("Resolve copied the unchanged ground subtree")
	}
}

func TestPredKey(t *testing.T) {
	c := NewCompound("vesselType", NewAtom("v1"), NewAtom("tug"))
	if got := c.Pred(); got != (PredKey{"vesselType", 2}) {
		t.Fatalf("Pred = %+v", got)
	}
	if got, want := c.Pred().String(), c.Indicator(); got != want {
		t.Fatalf("PredKey.String = %q, want Indicator %q", got, want)
	}
	if got := NewInt(3).Pred(); got != (PredKey{}) {
		t.Fatalf("non-callable Pred = %+v, want zero", got)
	}
}
