package lang

import (
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
