package stream

import (
	"fmt"
	"math/rand"
	"testing"
)

// perturbInput is a sorted six-event stream over [10, 60].
func perturbInput() Stream {
	return Stream{
		ev(10, "entersArea(v1, a1)"),
		ev(20, "velocity(v1, 3.0, 90.0, 90.0)"),
		ev(30, "leavesArea(v1, a1)"),
		ev(40, "entersArea(v2, a1)"),
		ev(50, "gap_start(v1)"),
		ev(60, "leavesArea(v2, a1)"),
	}
}

func perturbSeed(seed, maxDelay int64, dupEvery int) (Stream, int, int) {
	return Perturb(perturbInput(), rand.New(rand.NewSource(seed)), maxDelay, dupEvery)
}

func TestPerturbBoundedAndReproducible(t *testing.T) {
	a, late, _ := perturbSeed(3, 25, 0)
	if b, _, _ := perturbSeed(3, 25, 0); fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("same seed produced different perturbations")
	}

	// Displacement is bounded: replaying through a reorder buffer with the
	// same bound must drop nothing, and it sees the late arrivals counted.
	r := NewReorder(25)
	for _, e := range a {
		if verdict := r.Push(e); verdict == TooLate {
			t.Fatalf("event %s displaced beyond the bound", e)
		}
	}
	if int64(late) != r.Stats().Late {
		t.Fatalf("Perturb counts %d late arrivals, the reorder buffer %d", late, r.Stats().Late)
	}

	// A different seed gives a different arrival order (with this stream
	// and bound the probability of a collision is negligible).
	if c, _, _ := perturbSeed(4, 25, 0); fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds produced identical perturbations")
	}
}

func TestPerturbKeepsEventMultiset(t *testing.T) {
	got, _, _ := perturbSeed(9, 100, 0)
	got.Sort()
	if fmt.Sprint(got) != fmt.Sprint(perturbInput()) {
		t.Fatalf("sorted perturbation differs from input:\n%v", got)
	}
}

func TestDuplicateInjection(t *testing.T) {
	got, late, dups := perturbSeed(1, 0, 2)
	if len(got) != 9 || dups != 3 || late != 0 {
		t.Fatalf("got %d events (%d duplicates, %d late), want 6 + 3 duplicates, none late", len(got), dups, late)
	}
	deduped, dropped := got.Dedup()
	if dropped != 3 || len(deduped) != 6 {
		t.Fatalf("dedup removed %d of %d, want 3 of 9", dropped, len(got))
	}
}
