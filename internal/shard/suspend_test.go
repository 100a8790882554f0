package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtecgen/internal/rtec"
)

// suspendResumeIdentity parks a run checkpointing every `every` windows
// after `park` arrivals, resumes it in a fresh supervisor over the same
// directory, and asserts the final CSV, stats and engine journal bytes
// match an uninterrupted run's. With crashes, the first process degrades
// at them and a second one resumes it before the park: a parked run may
// itself be a resumed one.
func suspendResumeIdentity(t *testing.T, park, every int, crashes []crash) {
	c := fileConfig{arrivals: testArrivals(7, 160, 60), every: every}
	want := faultFree(t, c)

	c.dir = t.TempDir()
	resume := false
	if crashes != nil {
		c.sched = newSchedule(crashes...)
		failed := c.start(t, false)
		failed.ingest(c.arrivals)
		if _, err := failed.sup.Close(); err == nil {
			t.Fatal("the engine never degraded: the fault never fired")
		}
		failed.jf.Close()
		resume = true
	}
	parked := c.start(t, resume)
	if !parked.ingest(c.arrivals[:park]) {
		t.Fatal("the engine degraded before the park")
	}
	sts, err := parked.sup.Suspend()
	if err != nil {
		t.Fatalf("suspend: %v", err)
	}
	parked.jf.Close()
	if st := sts[0]; !st.Suspended || st.Degraded || st.Consumed != int64(park) {
		t.Fatalf("the engine did not park cleanly after %d arrivals: %+v", park, st)
	}

	got, err := c.untilFinished(t, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, want, got)
}

// everyCadence runs a suspend-resume case at the checkpoint cadences 1 and
// 3: rtecd -checkpoint-every accepts any positive value.
func everyCadence(t *testing.T, park int, crashes []crash) {
	for _, every := range []int{1, 3} {
		t.Run(fmt.Sprintf("every=%d", every), func(t *testing.T) {
			suspendResumeIdentity(t, park, every, crashes)
		})
	}
}

// TestSuspendResumeByteIdentity is the cross-process drain contract: a
// supervisor parked mid-stream and a fresh one resumed over its checkpoint
// and journal files reproduce an uninterrupted run byte-for-byte.
func TestSuspendResumeByteIdentity(t *testing.T) {
	everyCadence(t, 80, nil)
}

// TestSuspendResumeEarlyPark parks after 3 arrivals: the suspend checkpoint
// holds little more than the reorder buffer, and the resume must continue
// from it.
func TestSuspendResumeEarlyPark(t *testing.T) {
	everyCadence(t, 3, nil)
}

// TestSuspendResumeBeforeFirstArrival parks before any arrival: the suspend
// checkpoint is empty, so the resumed engine starts fresh and journals
// run_start on its first ingest, as the uninterrupted run does.
func TestSuspendResumeBeforeFirstArrival(t *testing.T) {
	everyCadence(t, 0, nil)
}

// TestSuspendResumeAfterFaults: a panic at window 1 degrades the first
// process; a second resumes it, parks, and a third finishes — crash
// recovery and the graceful park compose without disturbing the
// byte-identity contract.
func TestSuspendResumeAfterFaults(t *testing.T) {
	everyCadence(t, 80, []crash{panicAt(1)})
}

// TestResumeRefusesTornSuspendCheckpoint: a suspend checkpoint that is torn
// fails the resume naming the file — there is no older generation to fall
// back to. So does one that is missing while the journal records
// checkpoint generations past it: a generation's record reaches the
// journal only after the previous generation reached the disk, so two such
// records prove a lost file, not a killed write.
func TestResumeRefusesTornSuspendCheckpoint(t *testing.T) {
	c := fileConfig{arrivals: testArrivals(7, 160, 60), every: 1}
	for _, tc := range []struct {
		name   string
		damage func(path string)
	}{
		{"torn", tearFile},
		{"missing", func(path string) { os.Remove(path) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := c
			c.dir = t.TempDir()
			parked := c.start(t, false)
			parked.ingest(c.arrivals[:80])
			if _, err := parked.sup.Suspend(); err != nil {
				t.Fatalf("suspend: %v", err)
			}
			parked.jf.Close()
			path := filepath.Join(c.dir, "run.ckpt.s0")
			tc.damage(path)
			r, err := c.open(t, true)
			if err == nil {
				r.sup.Close()
				r.jf.Close()
				t.Fatal("resume from an unusable suspend checkpoint succeeded")
			}
			if !strings.Contains(err.Error(), path) {
				t.Fatalf("resume error does not name %s: %v", path, err)
			}
		})
	}
}

func TestSuspendRequiresCheckpointPath(t *testing.T) {
	arrivals := testArrivals(7, 40, 60)
	first, last := arrivals.TimeRange()
	sup, err := NewSupervisor(testEngine(t), Options{
		Stream: rtec.StreamOptions{
			RunOptions: rtec.RunOptions{Window: 100, Start: first, End: last + 1},
			MaxDelay:   60,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sup.Suspend(); err == nil {
		t.Fatal("Suspend without a checkpoint path succeeded")
	}
	// The configuration error leaves the runtime usable: Close still works.
	if _, err := sup.Close(); err != nil {
		t.Fatalf("Close after the refused Suspend: %v", err)
	}
}

func TestResumeRequiresCheckpointPath(t *testing.T) {
	_, err := NewSupervisor(testEngine(t), Options{
		Stream: rtec.StreamOptions{RunOptions: rtec.RunOptions{Window: 100, Start: 0, End: 100}},
		Resume: true,
	})
	if err == nil {
		t.Fatal("Resume without a checkpoint path accepted")
	}
}
