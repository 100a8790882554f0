package stream

import (
	"fmt"
	"testing"

	"rtecgen/internal/lang"
)

func pushAll(t *testing.T, r *Reorder, events []Event, want []Admission) {
	t.Helper()
	if len(events) != len(want) {
		t.Fatalf("bad test: %d events, %d verdicts", len(events), len(want))
	}
	for i, e := range events {
		if got, _ := r.Push(e); got != want[i] {
			t.Fatalf("Push(%s) = %s, want %s", e, got, want[i])
		}
	}
}

func TestReorderAdmission(t *testing.T) {
	r := NewReorder(10)
	if _, ok := r.Frontier(); ok {
		t.Fatal("frontier set before first admission")
	}
	if _, ok := r.Watermark(); ok {
		t.Fatal("watermark set before first admission")
	}
	pushAll(t, r,
		[]Event{ev(100, "a"), ev(95, "b"), ev(100, "a"), ev(120, "c"), ev(111, "d"), ev(109, "e")},
		[]Admission{Admitted, AdmittedLate, Duplicate, Admitted, AdmittedLate, TooLate})
	if f, _ := r.Frontier(); f != 120 {
		t.Fatalf("frontier = %d, want 120", f)
	}
	if w, _ := r.Watermark(); w != 110 {
		t.Fatalf("watermark = %d, want 110", w)
	}
	want := DisorderStats{Observed: 6, Accepted: 4, Late: 2, Duplicates: 1, Dropped: 1}
	if got := r.Stats(); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
	buf := r.Buffered()
	if len(buf) != 4 || !buf.IsSorted() {
		t.Fatalf("buffered = %v, want 4 sorted events", buf)
	}
}

func TestReorderZeroDelayDropsAnyDisorder(t *testing.T) {
	r := NewReorder(0)
	pushAll(t, r,
		[]Event{ev(10, "a"), ev(20, "b"), ev(19, "late"), ev(20, "tie")},
		[]Admission{Admitted, Admitted, TooLate, Admitted})
	if got := r.Stats().Dropped; got != 1 {
		t.Fatalf("dropped = %d, want 1", got)
	}
}

func TestReorderNegativeDelayClamped(t *testing.T) {
	r := NewReorder(-5)
	if r.MaxDelay() != 0 {
		t.Fatalf("maxDelay = %d, want 0", r.MaxDelay())
	}
}

func TestReorderReleaseAndDrop(t *testing.T) {
	r := NewReorder(100)
	for _, e := range []Event{ev(30, "c"), ev(10, "a"), ev(20, "b"), ev(40, "d")} {
		r.Push(e)
	}
	out := r.Release(25)
	if len(out) != 2 || out[0].Time != 10 || out[1].Time != 20 {
		t.Fatalf("Release(25) = %v", out)
	}
	if len(r.Buffered()) != 2 {
		t.Fatalf("buffered after release = %v", r.Buffered())
	}
	// Released events leave the dedup set: a fresh arrival at their key is
	// admitted again (admission-time lateness check still applies).
	if got, _ := r.Push(ev(20, "b")); got != AdmittedLate {
		t.Fatalf("re-push after release = %s, want admitted-late", got)
	}
	if n := r.Drop(50); n != 3 {
		t.Fatalf("Drop(50) = %d, want 3", n)
	}
	if len(r.Buffered()) != 0 {
		t.Fatalf("buffered after drop = %v", r.Buffered())
	}
	if out := r.Release(99); out != nil {
		t.Fatalf("Release on empty buffer = %v, want nil", out)
	}
}

func TestReorderSortedInsertTieBreak(t *testing.T) {
	r := NewReorder(100)
	for _, e := range []Event{ev(10, "b"), ev(10, "a"), ev(10, "c")} {
		r.Push(e)
	}
	buf := r.Buffered()
	if buf[0].Atom.Functor != "a" || buf[1].Atom.Functor != "b" || buf[2].Atom.Functor != "c" {
		t.Fatalf("tie-break order wrong: %v", buf)
	}
}

func TestReorderStateRoundTrip(t *testing.T) {
	r := NewReorder(10)
	for _, e := range []Event{ev(100, "a"), ev(95, "b"), ev(100, "a"), ev(120, "c")} {
		r.Push(e)
	}
	st := r.State()
	// The snapshot is a copy: mutating the original afterwards must not
	// change it.
	r.Push(ev(130, "d"))

	r2 := NewReorderFromState(10, st)
	if f, _ := r2.Frontier(); f != 120 {
		t.Fatalf("restored frontier = %d, want 120", f)
	}
	if got, want := r2.Stats(), st.Stats; got != want {
		t.Fatalf("restored stats = %+v, want %+v", got, want)
	}
	if len(r2.Buffered()) != 3 {
		t.Fatalf("restored buffer = %v, want 3 events", r2.Buffered())
	}
	// Dedup keys were rebuilt from the buffer.
	if got, _ := r2.Push(ev(120, "c")); got != Duplicate {
		t.Fatalf("duplicate after restore = %s, want duplicate", got)
	}
}

func TestAdmissionString(t *testing.T) {
	for a, want := range map[Admission]string{
		Admitted: "admitted", AdmittedLate: "admitted-late",
		Duplicate: "duplicate", TooLate: "too-late",
	} {
		if a.String() != want {
			t.Fatalf("Admission(%d).String() = %q, want %q", a, a.String(), want)
		}
	}
}

// TestReorderCloseDrainsTail pins the end-of-stream drain: an in-order
// consumer that releases only up to the watermark holds back the final
// MaxDelay's worth of events; Close must flush exactly that tail instead of
// silently dropping it.
func TestReorderCloseDrainsTail(t *testing.T) {
	r := NewReorder(10)
	pushAll(t, r,
		[]Event{ev(100, "a"), ev(95, "b"), ev(120, "c"), ev(118, "d"), ev(125, "e")},
		[]Admission{Admitted, AdmittedLate, Admitted, AdmittedLate, Admitted})

	// The in-order consumer's steady state: release the settled prefix.
	w, _ := r.Watermark() // 115
	released := r.Release(w)
	if len(released) != 2 {
		t.Fatalf("released %d settled events, want 2", len(released))
	}

	// Stream ends. The watermark never advanced past 118/120/125: without a
	// drain those three buffered events would be lost.
	tail := r.Close()
	if len(tail) != 3 {
		t.Fatalf("Close drained %d events, want 3", len(tail))
	}
	for i, wantT := range []int64{118, 120, 125} {
		if tail[i].Time != wantT {
			t.Fatalf("tail[%d].Time = %d, want %d", i, tail[i].Time, wantT)
		}
	}
	if r.Occupancy() != 0 {
		t.Fatalf("occupancy after Close = %d", r.Occupancy())
	}
	// Total emitted = released + drained = every accepted event.
	if got, want := int64(len(released)+len(tail)), r.Stats().Accepted; got != want {
		t.Fatalf("emitted %d events, accepted %d: in-flight events dropped", got, want)
	}

	// The buffer stays usable: admission state survives the drain, so a
	// late-beyond-bound arrival is still rejected, and new events flow.
	if got, _ := r.Push(ev(90, "z")); got != TooLate {
		t.Fatalf("post-Close stale push = %s, want too-late", got)
	}
	if got, _ := r.Push(ev(130, "f")); got != Admitted {
		t.Fatalf("post-Close push = %s, want admitted", got)
	}
	if got := len(r.Close()); got != 1 {
		t.Fatalf("second Close drained %d, want 1", got)
	}
}

// TestReorderCloseEmpty: draining an empty or fully-released buffer is a
// no-op.
func TestReorderCloseEmpty(t *testing.T) {
	r := NewReorder(5)
	if got := r.Close(); len(got) != 0 {
		t.Fatalf("Close on empty buffer returned %d events", len(got))
	}
	r.Push(ev(10, "a"))
	r.Release(11)
	if got := r.Close(); len(got) != 0 {
		t.Fatalf("Close after full release returned %d events", len(got))
	}
}

// pushAllocCeiling bounds the heap allocations per admission of an
// in-order Push, amortised over a run that drops the settled prefix as the
// engine does: the one rendering of the atom, plus a share of the buffer's
// and the duplicate set's growth. Measured 1.01 when it was committed; a
// buffer that renders the atom again for its duplicate key or for every
// binary-search probe reads 9 or more.
const pushAllocCeiling = 2

func TestReorderPushAllocCeiling(t *testing.T) {
	vessels := []string{"anchor1", "barge1", "cargoIn1", "drift1", "gapper1", "gapper2", "moor1",
		"speeder1", "trawler1", "tug1", "cargoOut1", "fisher1", "pilot1", "tanker1"}
	var arrivals Stream
	for tp := int64(0); tp < 160; tp++ {
		for i, v := range vessels {
			arrivals = append(arrivals, ev(tp*120, fmt.Sprintf("velocity(%s, %d.5, %d.25, %d.25)", v, 7+i, tp%360, tp%360)))
		}
	}
	const maxDelay = 900
	allocs := testing.AllocsPerRun(5, func() {
		r := NewReorder(maxDelay)
		for i, e := range arrivals {
			if verdict, _ := r.Push(e); verdict != Admitted {
				t.Fatalf("in-order arrival %d not admitted", i)
			}
			if i%20 == 19 {
				w, _ := r.Watermark()
				r.Drop(w)
			}
		}
	})
	perPush := allocs / float64(len(arrivals))
	t.Logf("%.0f allocs for %d in-order pushes, %.2f per admission, ceiling %d", allocs, len(arrivals), perPush, pushAllocCeiling)
	if perPush > pushAllocCeiling {
		t.Fatalf("an in-order Push allocates %.2f objects, ceiling %d", perPush, pushAllocCeiling)
	}
}

// FuzzReorderMatchesSort holds the reorder buffer to the batch definition
// of the stream it releases: whatever the arrival order and delay bound,
// the verdicts count as DisorderStats says, what Release, Drop and Close
// return is Stream.Sort + Dedup over the admitted arrivals, a
// State/NewReorderFromState round trip at any point changes nothing, and
// Text(i) is Buffered()[i]'s rendering at every step.
func FuzzReorderMatchesSort(f *testing.F) {
	f.Add(int8(10), uint16(2), []byte{100, 0, 95, 1, 100, 0, 120, 2, 111, 3, 109, 4})
	f.Add(int8(0), uint16(0), []byte{10, 1, 10, 0, 10, 2, 9, 0, 10, 1})
	f.Add(int8(20), uint16(3), []byte{5, 4, 5, 5, 5, 3, 30, 0, 0, 0xc0, 12, 1, 31, 0xc1, 40, 2, 31, 0})
	f.Add(int8(-3), uint16(1), []byte{1, 0, 2, 0, 1, 0})
	atoms := []*lang.Term{}
	for _, src := range []string{"a", "b", "a(x)", "a(y)", "b(1, 2)", "b(1, 10)"} {
		atoms = append(atoms, ev(0, src).Atom)
	}
	f.Fuzz(func(t *testing.T, maxDelay int8, cut uint16, data []byte) {
		r := NewReorder(int64(maxDelay))
		var want DisorderStats
		var admitted, out Stream
		check := func(step int) {
			t.Helper()
			buf := r.Buffered()
			for i := range buf {
				if got, want := r.Text(i), buf[i].Atom.String(); got != want {
					t.Fatalf("step %d: Text(%d) = %q, Buffered()[%d] renders %q", step, i, got, i, want)
				}
			}
		}
		for k := 0; k+1 < len(data); k += 2 {
			step := k / 2
			if step == int(cut) {
				r = NewReorderFromState(r.MaxDelay(), r.State())
				check(step)
			}
			b0, b1 := data[k], data[k+1]
			switch {
			case b1>>6 == 3 && b1&1 == 0:
				if w, ok := r.Watermark(); ok {
					out = append(out, r.Release(w)...)
				}
			case b1>>6 == 3:
				if w, ok := r.Watermark(); ok {
					n := 0
					for n < r.Occupancy() && r.Buffered()[n].Time < w {
						n++
					}
					out = append(out, r.Buffered()[:n]...)
					if got := r.Drop(w); got != n {
						t.Fatalf("step %d: Drop(%d) = %d, want %d", step, w, got, n)
					}
				}
			default:
				e := Event{Time: int64(b0 % 64), Atom: atoms[int(b1)%len(atoms)]}
				want.Observed++
				verdict, text := r.Push(e)
				if verdict != TooLate && text != e.Atom.String() {
					t.Fatalf("step %d: Push(%s) returned text %q", step, e, text)
				}
				switch verdict {
				case Admitted:
					want.Accepted++
					admitted = append(admitted, e)
				case AdmittedLate:
					want.Accepted++
					want.Late++
					admitted = append(admitted, e)
				case Duplicate:
					want.Duplicates++
				case TooLate:
					want.Dropped++
				}
			}
			check(step)
		}
		if got := r.Stats(); got != want {
			t.Fatalf("stats %+v, verdicts counted %+v", got, want)
		}
		out = append(out, r.Close()...)
		check(-1)
		sorted := append(Stream(nil), admitted...)
		sorted.Sort()
		sorted, _ = sorted.Dedup()
		if len(out) != len(sorted) {
			t.Fatalf("released %d events, Sort+Dedup over the admitted arrivals gives %d:\n%v\n%v", len(out), len(sorted), out, sorted)
		}
		for i := range out {
			if out[i].Time != sorted[i].Time || out[i].Atom.String() != sorted[i].Atom.String() {
				t.Fatalf("event %d: released %v, Sort+Dedup gives %v", i, out[i], sorted[i])
			}
		}
	})
}
