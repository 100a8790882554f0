package rtec

import (
	"fmt"
	"testing"

	"rtecgen/internal/parser"
	"rtecgen/internal/stream"
)

// hierarchyED defines a three-level hierarchy so the caching ablation has
// shared dependencies to recompute: two simple fluents, two middle
// statically determined fluents over them, and a top fluent over the middle
// ones.
const hierarchyED = `
inputEvent(a_start(_)).
inputEvent(a_end(_)).
inputEvent(b_start(_)).
inputEvent(b_end(_)).

initiatedAt(a(X)=true, T) :- happensAt(a_start(X), T).
terminatedAt(a(X)=true, T) :- happensAt(a_end(X), T).
initiatedAt(b(X)=true, T) :- happensAt(b_start(X), T).
terminatedAt(b(X)=true, T) :- happensAt(b_end(X), T).

holdsFor(mid1(X)=true, I) :-
    holdsFor(a(X)=true, Ia),
    holdsFor(b(X)=true, Ib),
    union_all([Ia, Ib], I).

holdsFor(mid2(X)=true, I) :-
    holdsFor(a(X)=true, Ia),
    holdsFor(b(X)=true, Ib),
    intersect_all([Ia, Ib], I).

holdsFor(top(X)=true, I) :-
    holdsFor(mid1(X)=true, I1),
    holdsFor(mid2(X)=true, I2),
    relative_complement_all(I1, [I2], I).
`

func hierarchyEvents() stream.Stream {
	var s stream.Stream
	for _, e := range []struct {
		t   int64
		src string
	}{
		{10, "a_start(x)"}, {50, "a_end(x)"},
		{30, "b_start(x)"}, {80, "b_end(x)"},
		{10, "a_start(y)"}, {90, "a_end(y)"},
		{95, "b_start(z)"}, {99, "b_end(z)"},
	} {
		s = append(s, stream.Event{Time: e.t, Atom: parser.MustParseTerm(e.src)})
	}
	return s
}

// TestCachingAblationSameResults: the uncached engine must recognise
// exactly the same intervals as the cached one — the ablation only changes
// the amount of recomputation.
func TestCachingAblationSameResults(t *testing.T) {
	ed, err := parser.ParseEventDescription(hierarchyED)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := New(ed, Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	uncached, err := New(ed, Options{Strict: true, DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	events := hierarchyEvents()
	for _, window := range []int64{0, 40} {
		rc, err := cached.Run(events, RunOptions{Window: window})
		if err != nil {
			t.Fatal(err)
		}
		ru, err := uncached.Run(events, RunOptions{Window: window})
		if err != nil {
			t.Fatal(err)
		}
		if len(rc.Keys()) != len(ru.Keys()) {
			t.Fatalf("window=%d: keys %v vs %v", window, rc.Keys(), ru.Keys())
		}
		for _, key := range rc.Keys() {
			if !rc.IntervalsOfKey(key).Equal(ru.IntervalsOfKey(key)) {
				t.Fatalf("window=%d: %s: cached %s vs uncached %s",
					window, key, rc.IntervalsOfKey(key), ru.IntervalsOfKey(key))
			}
		}
	}
}

func TestHierarchySemantics(t *testing.T) {
	ed, err := parser.ParseEventDescription(hierarchyED)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(ed, Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := e.Run(hierarchyEvents(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// a(x): [11,51), b(x): [31,81).
	// mid1 = union = [11,81); mid2 = intersect = [31,51);
	// top = mid1 \ mid2 = [11,31) + [51,81).
	got := rec.IntervalsOfKey("top(x)=true")
	want := "[(10,30], (50,80]]"
	if got.String() != want {
		t.Fatalf("top(x) = %s, want %s", got, want)
	}
	// y has only a: mid1 = a, mid2 empty, top = a.
	if rec.IntervalsOfKey("top(y)=true").String() != "[(10,90]]" {
		t.Fatalf("top(y) = %s", rec.IntervalsOfKey("top(y)=true"))
	}
}

func TestDepsClosure(t *testing.T) {
	ed, err := parser.ParseEventDescription(hierarchyED)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(ed, Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	deps := e.depsClosure("top/1")
	want := map[string]bool{"a/1": true, "b/1": true, "mid1/1": true, "mid2/1": true}
	if len(deps) != len(want) {
		t.Fatalf("deps = %v", deps)
	}
	for _, d := range deps {
		if !want[d] {
			t.Fatalf("unexpected dep %s", d)
		}
	}
	// Stratified: a and b before mid1 and mid2.
	pos := map[string]int{}
	for i, d := range deps {
		pos[d] = i
	}
	if pos["a/1"] > pos["mid1/1"] || pos["b/1"] > pos["mid2/1"] {
		t.Fatalf("deps not in stratum order: %v", deps)
	}
	if got := e.depsClosure("a/1"); len(got) != 0 {
		t.Fatalf("leaf deps = %v", got)
	}
}

// The three benchmarks below are the E5 ablations DESIGN.md §3 cites for the
// paper's Section 2 claim that the cost of reasoning depends on the window
// size ω, not on the stream size. Run with:
//
//	go test ./internal/rtec -run '^$' -bench 'RTEC(WindowSweep|StreamSweep|Caching)' -benchmem

// BenchmarkRTECWindowSweep is the ablation for RTEC's windowing: the same
// stream recognised under different window sizes ω (0 = a single window
// over the whole stream). Per-window cost shrinks with ω while total work
// stays near-linear in the stream.
func BenchmarkRTECWindowSweep(b *testing.B) {
	engines, events := maritimeEngines(b, 16, Options{})
	eng := engines[0]
	for _, window := range []int64{900, 1800, 3600, 7200, 0} {
		name := fmt.Sprintf("window=%d", window)
		if window == 0 {
			name = "window=whole-stream"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportMetric(float64(len(events)), "events")
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(events, RunOptions{Window: window}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRTECStreamSweep scales the fleet (and with it the stream) at a
// fixed window: recognition cost should grow near-linearly with the stream.
func BenchmarkRTECStreamSweep(b *testing.B) {
	for _, vessels := range []int{14, 30, 60} {
		engines, events := maritimeEngines(b, vessels, Options{})
		eng := engines[0]
		b.Run(fmt.Sprintf("vessels=%d", vessels), func(b *testing.B) {
			b.ReportMetric(float64(len(events)), "events")
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(events, RunOptions{Window: 3600}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRTECCaching is the ablation of RTEC's hierarchical caching: the
// same recognition run with intermediate FVP intervals cached bottom-up
// (the RTEC optimisation) versus recomputed per dependent fluent.
func BenchmarkRTECCaching(b *testing.B) {
	engines, events := maritimeEngines(b, 16, Options{}, Options{DisableCache: true})
	for k, name := range []string{"cached", "uncached"} {
		eng := engines[k]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(events, RunOptions{Window: 3600}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
