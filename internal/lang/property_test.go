package lang

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// genPropTerm builds a random term over a small vocabulary, with variables.
func genPropTerm(r *rand.Rand, depth int) *Term {
	if depth == 0 || r.Intn(3) == 0 {
		switch r.Intn(4) {
		case 0:
			return NewVar([]string{"X", "Y", "Z"}[r.Intn(3)])
		case 1:
			return NewAtom([]string{"a", "b", "c"}[r.Intn(3)])
		case 2:
			return NewInt(int64(r.Intn(3)))
		default:
			return NewAtom("d")
		}
	}
	n := 1 + r.Intn(3)
	args := make([]*Term, n)
	for i := range args {
		args[i] = genPropTerm(r, depth-1)
	}
	return NewCompound([]string{"f", "g"}[r.Intn(2)], args...)
}

// TestPropUnifySoundness: whenever Unify(a, b) succeeds, resolving both
// sides under the resulting substitution yields equal terms.
func TestPropUnifySoundness(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := genPropTerm(r, 3)
		b := genPropTerm(r, 3)
		ts, s := numbered(a, b)
		a, b = ts[0], ts[1]
		if !s.Unify(a, b) {
			return true // failure is always sound
		}
		ra, rb := s.Resolve(a), s.Resolve(b)
		if ra.Equal(rb) {
			return true
		}
		// Numeric identity across kinds is permitted by Unify.
		na, aok := ra.Number()
		nb, bok := rb.Number()
		return aok && bok && na == nb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestPropUnifyReflexive: every term unifies with itself and resolves
// unchanged under the resulting substitution.
func TestPropUnifyReflexive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := genPropTerm(r, 3)
		ts, s := numbered(a)
		a = ts[0]
		return s.Unify(a, a) && s.Mark() == 0 && s.Resolve(a).Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPropCompareConsistentWithEqual: Compare(a, b) == 0 exactly when the
// terms are structurally equal (for ground terms).
func TestPropCompareConsistentWithEqual(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := genPropTerm(r, 2)
		b := genPropTerm(r, 2)
		if !a.IsGround() || !b.IsGround() {
			return true
		}
		if (Compare(a, b) == 0) != a.Equal(b) {
			return false
		}
		// Antisymmetry.
		return Compare(a, b) == -Compare(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// genHashTerm builds a random ground term over every kind Hash reads, zeros
// of both signs included, and a twin of it: the same term with each float
// zero's sign drawn again, so the two are Equal.
func genHashTerm(r *rand.Rand, depth int) (term, twin *Term) {
	if depth == 0 || r.Intn(3) == 0 {
		switch r.Intn(6) {
		case 0:
			return NewFloat(0), NewFloat([]float64{0, math.Copysign(0, -1)}[r.Intn(2)])
		case 1:
			return NewFloat(math.Copysign(0, -1)), NewFloat([]float64{0, math.Copysign(0, -1)}[r.Intn(2)])
		case 2:
			f := NewFloat([]float64{1.5, -2}[r.Intn(2)])
			return f, f
		case 3:
			i := NewInt(int64(r.Intn(2)))
			return i, i
		case 4:
			s := NewStr([]string{"", "0"}[r.Intn(2)])
			return s, s
		default:
			a := NewAtom([]string{"a", "b"}[r.Intn(2)])
			return a, a
		}
	}
	n := r.Intn(3)
	args, twins := make([]*Term, n), make([]*Term, n)
	for i := range args {
		args[i], twins[i] = genHashTerm(r, depth-1)
	}
	if r.Intn(3) == 0 {
		return NewList(args...), NewList(twins...)
	}
	f := []string{"f", "g"}[r.Intn(2)]
	return NewCompound(f, args...), NewCompound(f, twins...)
}

// TestPropEqualImpliesHash: Hash's contract — structurally equal terms (in
// the sense of Equal) hash identically, so one interner gives them one ID —
// over random terms where 0.0 and -0.0, which are Equal, occur anywhere.
func TestPropEqualImpliesHash(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, twin := genHashTerm(r, 3)
		b, _ := genHashTerm(r, 2)
		in := NewInterner()
		for _, o := range []*Term{twin, b} {
			if a.Equal(o) && (Hash(a, nil) != Hash(o, nil) || in.ID(a, nil) != in.ID(o, nil)) {
				return false
			}
		}
		return a.Equal(twin)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestPropCloneEqual: clones are structurally equal and print identically.
func TestPropCloneEqual(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := genPropTerm(r, 3)
		c := a.Clone()
		return a.Equal(c) && a.String() == c.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
