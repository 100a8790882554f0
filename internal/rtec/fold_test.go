package rtec

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"rtecgen/internal/stream"
)

// TestResumeKeepsEarlyWarnings: a run killed after any arrival and resumed
// from its checkpoint lists every warning the uninterrupted run lists — one
// raised only in windows the watermark passed before the checkpoint (in its
// fold section), or in a window still revisable then (in its slot). The rule
// leaves Y unbound, so every initiation warns about the FVP it could not
// ground: once for go(early) in the first window, once for go(late) in the
// last.
func TestResumeKeepsEarlyWarnings(t *testing.T) {
	e := mustEngine(t, `
initiatedAt(g(X, Y)=true, T) :- happensAt(go(X), T).
terminatedAt(g(X, Y)=true, T) :- happensAt(stop(X), T).
`, Options{})
	arrivals := stream.Stream{ev(5, "go(early)")}
	for t := int64(15); t < 990; t += 15 {
		arrivals = append(arrivals, ev(t, "stop(other)"))
	}
	arrivals = append(arrivals, ev(990, "go(late)"))
	opts := StreamOptions{
		RunOptions:      RunOptions{Window: 100, Start: 0, End: 1000},
		MaxDelay:        10,
		CheckpointEvery: 1,
	}
	want, err := e.RunStream(arrivals, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Warnings) != 2 {
		t.Fatalf("the uninterrupted run lists %v, want the two initiations' warnings", want.Warnings)
	}

	inFold, inSlot := false, false
	for cut := 1; cut < len(arrivals); cut++ {
		opts.CheckpointPath = filepath.Join(t.TempDir(), "run.ckpt")
		r, err := e.NewStreamRunner(opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range arrivals[:cut] {
			if err := r.Ingest(a); err != nil {
				t.Fatal(err)
			}
		}
		r.Abort() // killed after cut arrivals
		if r.st.stats.Checkpoints == 0 {
			continue
		}
		cp, err := LoadCheckpoint(opts.CheckpointPath)
		if err != nil {
			t.Fatal(err)
		}
		inFold = inFold || len(cp.payload.Warnings) > 0
		for _, cs := range cp.payload.Slots {
			inSlot = inSlot || len(cs.Warnings) > 0
		}
		got, err := resumeStream(e, opts.CheckpointPath, arrivals, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Warnings, want.Warnings) {
			t.Fatalf("killed after %d arrivals, the resumed run lists %v, the uninterrupted run %v", cut, got.Warnings, want.Warnings)
		}
		if csvOf(t, got.Recognition) != csvOf(t, want.Recognition) {
			t.Fatalf("killed after %d arrivals, the resumed run's CSV differs from the uninterrupted run's", cut)
		}
	}
	if !inFold || !inSlot {
		t.Fatalf("a checkpoint carried the early warning in its fold section: %v, in a revisable slot: %v; the test needs both", inFold, inSlot)
	}
}

// TestRetentionBoundedByWindow: what a run keeps for the windows behind the
// watermark does not grow with the stream. Over 1 and 4 time-shifted copies
// of the 14-vessel scenario (ω 3600, slide 300, delay 900, a checkpoint per
// window), after every arrival the slots holding an evaluation are at most
// the revisable ones plus one, and the largest checkpoint, less its fold
// section (which grows with the FVPs recognised so far), is within 10 % at
// 4 copies of what it is at 1.
func TestRetentionBoundedByWindow(t *testing.T) {
	e, one := goldScenario(t)
	first, last := one.TimeRange()
	const window, slide = 3600, 300
	shift := ((last-first)/window + 1) * window
	largest := map[int]int{}
	for _, k := range []int{1, 4} {
		var events stream.Stream
		for c := 0; c < k; c++ {
			for _, ev := range one {
				ev.Time += int64(c) * shift
				events = append(events, ev)
			}
		}
		opts := StreamOptions{
			RunOptions:      RunOptions{Window: window, Slide: slide, Start: first, End: first + int64(k)*shift},
			MaxDelay:        900,
			CheckpointPath:  filepath.Join(t.TempDir(), "run.ckpt"),
			CheckpointEvery: 1,
		}
		r, err := e.NewStreamRunner(opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		st := r.st
		for n, a := range events {
			before := r.st.stats.Checkpoints
			if err := r.Ingest(a); err != nil {
				t.Fatal(err)
			}
			w, _ := st.reorder.Watermark()
			holding, revisable := 0, 0
			for i := range st.slots {
				if st.slots[i].eval.recognised != nil {
					holding++
				}
				if i < st.emitted && st.tl.q(i) > w {
					revisable++
				}
			}
			if holding > revisable+1 {
				t.Fatalf("%d copies, after arrival %d: %d slots hold an evaluation, %d are revisable", k, n, holding, revisable)
			}
			if r.st.stats.Checkpoints == before {
				continue
			}
			settle(t, r)
			cp, err := LoadCheckpoint(opts.CheckpointPath)
			if err != nil {
				t.Fatal(err)
			}
			fold, err := json.Marshal(struct {
				Fold     []ckptFVP
				Warnings []Warning
				Carry    []ckptFVP
			}{cp.payload.Fold, cp.payload.Warnings, cp.payload.Carry})
			if err != nil {
				t.Fatal(err)
			}
			if size := len(readFile(t, opts.CheckpointPath)) - len(fold); size > largest[k] {
				largest[k] = size
			}
		}
		if _, err := r.Finish(); err != nil {
			t.Fatal(err)
		}
		if st.emitted < 100*k {
			t.Fatalf("%d copies emitted %d windows", k, st.emitted)
		}
	}
	t.Logf("largest checkpoint less its fold section: %d B at 1 copy, %d B at 4", largest[1], largest[4])
	if float64(largest[4]) > 1.1*float64(largest[1]) {
		t.Fatalf("the largest checkpoint less its fold section is %d B at 4 copies, %d B at 1: what a checkpoint carries beyond the fold grows with the stream", largest[4], largest[1])
	}
}
