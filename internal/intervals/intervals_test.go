package intervals

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func iv(s, e int64) Interval { return Interval{s, e} }

func TestNormalizeMergesAndSorts(t *testing.T) {
	got := Normalize([]Interval{iv(10, 12), iv(1, 3), iv(3, 5), iv(2, 4), iv(7, 7)})
	want := List{iv(1, 5), iv(10, 12)}
	if !got.Equal(want) {
		t.Fatalf("Normalize = %s, want %s", got, want)
	}
	if !got.IsNormalized() {
		t.Fatal("result not normalised")
	}
}

func TestUnion(t *testing.T) {
	a := List{iv(1, 5), iv(10, 15)}
	b := List{iv(4, 11), iv(20, 25)}
	got := Union(a, b)
	want := List{iv(1, 15), iv(20, 25)}
	if !got.Equal(want) {
		t.Fatalf("Union = %s, want %s", got, want)
	}
	if got := Union(); len(got) != 0 {
		t.Fatalf("Union() = %s, want empty", got)
	}
}

func TestIntersect(t *testing.T) {
	a := List{iv(1, 10), iv(20, 30)}
	b := List{iv(5, 25)}
	got := Intersect(a, b)
	want := List{iv(5, 10), iv(20, 25)}
	if !got.Equal(want) {
		t.Fatalf("Intersect = %s, want %s", got, want)
	}
	if got := Intersect(a, nil); len(got) != 0 {
		t.Fatalf("Intersect with empty = %s", got)
	}
	three := Intersect(List{iv(0, 100)}, List{iv(10, 50)}, List{iv(40, 60)})
	if !three.Equal(List{iv(40, 50)}) {
		t.Fatalf("three-way Intersect = %s", three)
	}
	if Intersect() != nil {
		t.Fatal("Intersect() must be nil")
	}
}

func TestRelativeComplement(t *testing.T) {
	base := List{iv(0, 10), iv(20, 30)}
	got := RelativeComplement(base, List{iv(3, 5)}, List{iv(8, 22)})
	want := List{iv(0, 3), iv(5, 8), iv(22, 30)}
	if !got.Equal(want) {
		t.Fatalf("RelativeComplement = %s, want %s", got, want)
	}
	if got := RelativeComplement(base); !got.Equal(base) {
		t.Fatalf("complement of nothing = %s", got)
	}
	if got := RelativeComplement(nil, base); len(got) != 0 {
		t.Fatalf("complement of empty base = %s", got)
	}
	// Subtraction covering everything.
	if got := RelativeComplement(base, List{iv(0, 40)}); len(got) != 0 {
		t.Fatalf("total subtraction = %s", got)
	}
}

func TestFromPointsBasicPairing(t *testing.T) {
	// Initiated at 3, terminated at 8: holds at 4..8, i.e. [4, 9).
	got := FromPoints([]int64{3}, []int64{8})
	want := List{iv(4, 9)}
	if !got.Equal(want) {
		t.Fatalf("FromPoints = %s, want %s", got, want)
	}
}

func TestFromPointsIgnoresIntermediateInitiations(t *testing.T) {
	got := FromPoints([]int64{3, 5, 6}, []int64{8, 20})
	want := List{iv(4, 9)}
	if !got.Equal(want) {
		t.Fatalf("FromPoints = %s, want %s", got, want)
	}
}

func TestFromPointsOpenEnded(t *testing.T) {
	got := FromPoints([]int64{3, 10}, []int64{5})
	want := List{iv(4, 6), iv(11, Inf)}
	if !got.Equal(want) {
		t.Fatalf("FromPoints = %s, want %s", got, want)
	}
}

func TestFromPointsSimultaneousInitTerm(t *testing.T) {
	// Termination at the initiation point yields no interval.
	if got := FromPoints([]int64{5}, []int64{5}); len(got) != 0 {
		t.Fatalf("FromPoints = %s, want empty", got)
	}
	// But a later initiation still opens a new interval.
	got := FromPoints([]int64{5, 7}, []int64{5, 9})
	want := List{iv(8, 10)}
	if !got.Equal(want) {
		t.Fatalf("FromPoints = %s, want %s", got, want)
	}
}

func TestFromPointsTerminationsBeforeFirstInitiation(t *testing.T) {
	got := FromPoints([]int64{10}, []int64{2, 4, 15})
	want := List{iv(11, 16)}
	if !got.Equal(want) {
		t.Fatalf("FromPoints = %s, want %s", got, want)
	}
	if got := FromPoints(nil, []int64{1, 2}); got != nil {
		t.Fatalf("FromPoints with no initiations = %s", got)
	}
}

func TestFromPointsUnsortedInput(t *testing.T) {
	got := FromPoints([]int64{10, 3}, []int64{15, 8})
	want := List{iv(4, 9), iv(11, 16)}
	if !got.Equal(want) {
		t.Fatalf("FromPoints = %s, want %s", got, want)
	}
}

func TestPropFromPointsIdleOccurrences(t *testing.T) {
	// What a revision of a window relies on when a late event adds an
	// occurrence (rtec's idleAdditions): where the FVP holds at tp+1 one more
	// initiation at tp is absorbed — a termination at tp would have cancelled
	// it, but then the FVP would not hold at tp+1 — and where it does not, one
	// more termination at tp ends nothing.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var ini, ter []int64
		for i := 0; i < r.Intn(8); i++ {
			ini = append(ini, int64(r.Intn(30)))
		}
		for i := 0; i < r.Intn(8); i++ {
			ter = append(ter, int64(r.Intn(30)))
		}
		l := FromPoints(ini, ter)
		for tp := int64(-1); tp <= 31; tp++ {
			var with List
			if l.Contains(tp + 1) {
				with = FromPoints(append(append([]int64{}, ini...), tp), ter)
			} else {
				with = FromPoints(ini, append(append([]int64{}, ter...), tp))
			}
			if !with.Equal(l) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestContains(t *testing.T) {
	l := List{iv(2, 5), iv(9, 12)}
	for _, c := range []struct {
		t    int64
		want bool
	}{{1, false}, {2, true}, {4, true}, {5, false}, {8, false}, {9, true}, {11, true}, {12, false}} {
		if got := l.Contains(c.t); got != c.want {
			t.Errorf("Contains(%d) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestDurationAndClip(t *testing.T) {
	l := List{iv(2, 5), iv(9, Inf)}
	if d := l.Duration(); d != Inf {
		t.Fatalf("Duration = %d, want Inf", d)
	}
	c := Clip(l, 3, 20)
	want := List{iv(3, 5), iv(9, 20)}
	if !c.Equal(want) {
		t.Fatalf("Clip = %s, want %s", c, want)
	}
	if d := c.Duration(); d != 13 {
		t.Fatalf("Duration = %d, want 13", d)
	}
}

func TestOverlapDuration(t *testing.T) {
	a := List{iv(0, 10)}
	b := List{iv(5, 30)}
	if d := OverlapDuration(a, b, 0, 100); d != 5 {
		t.Fatalf("OverlapDuration = %d, want 5", d)
	}
	if d := OverlapDuration(a, b, 8, 100); d != 2 {
		t.Fatalf("clipped OverlapDuration = %d, want 2", d)
	}
}

func TestIntervalString(t *testing.T) {
	if got := iv(4, 9).String(); got != "(3,8]" {
		t.Fatalf("String = %q", got)
	}
	if got := iv(4, Inf).String(); got != "(3,inf)" {
		t.Fatalf("String = %q", got)
	}
	if got := (List{iv(4, 9)}).String(); got != "[(3,8]]" {
		t.Fatalf("List String = %q", got)
	}
}

// --- property-based tests -------------------------------------------------

// genList builds a small pseudo-random normalised list from a seed.
func genList(r *rand.Rand) List {
	n := r.Intn(6)
	var ivs []Interval
	for i := 0; i < n; i++ {
		s := int64(r.Intn(100))
		e := s + int64(r.Intn(20))
		ivs = append(ivs, Interval{s, e})
	}
	return Normalize(ivs)
}

func TestPropUnionCommutativeIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := genList(r), genList(r)
		if !Union(a, b).Equal(Union(b, a)) {
			return false
		}
		if !Union(a, a).Equal(a) {
			return false
		}
		return Union(a, b).IsNormalized()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropIntersectCommutativeAbsorption(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := genList(r), genList(r)
		if !Intersect(a, b).Equal(Intersect(b, a)) {
			return false
		}
		// Absorption: a ∩ (a ∪ b) == a.
		if !Intersect(a, Union(a, b)).Equal(a) {
			return false
		}
		return Intersect(a, b).IsNormalized()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropComplementDisjointAndPartitions(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := genList(r), genList(r)
		diff := RelativeComplement(a, b)
		// diff and b are disjoint.
		if len(Intersect(diff, b)) != 0 {
			return false
		}
		// diff ∪ (a ∩ b) == a.
		if !Union(diff, Intersect(a, b)).Equal(a) {
			return false
		}
		return diff.IsNormalized()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropFromPointsMembershipSemantics(t *testing.T) {
	// Membership computed from the interval list must agree with a direct
	// simulation of the law of inertia over the time-line.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var ini, ter []int64
		for i := 0; i < r.Intn(8); i++ {
			ini = append(ini, int64(r.Intn(50)))
		}
		for i := 0; i < r.Intn(8); i++ {
			ter = append(ter, int64(r.Intn(50)))
		}
		l := FromPoints(ini, ter)
		if !l.IsNormalized() {
			return false
		}
		iniSet := map[int64]bool{}
		for _, p := range ini {
			iniSet[p] = true
		}
		terSet := map[int64]bool{}
		for _, p := range ter {
			terSet[p] = true
		}
		holds := false
		for tp := int64(0); tp <= 60; tp++ {
			if l.Contains(tp) != holds {
				return false
			}
			// Transition into tp+1: termination wins over initiation at the
			// same point (the pair produces an empty interval).
			switch {
			case terSet[tp]:
				holds = false
			case iniSet[tp]:
				holds = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
