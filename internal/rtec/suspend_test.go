package rtec

import (
	"path/filepath"
	"testing"

	"rtecgen/internal/stream"
)

// parkAfter feeds the first n arrivals through a StreamRunner planned over
// the bounds RunStream and ResumeStream derive from the whole stream, then
// parks it with Suspend — the test double for a drain landing mid-stream.
func parkAfter(t *testing.T, e *Engine, arrivals stream.Stream, opts StreamOptions, n int, fn func(WindowResult) error) {
	t.Helper()
	r, err := e.NewStreamRunner(explicitBounds(opts, arrivals), fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arrivals[:n] {
		if err := r.Ingest(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Suspend(); err != nil {
		t.Fatalf("park@%d: %v", n, err)
	}
}

func TestInterruptSuspendsWithCheckpoint(t *testing.T) {
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	opts := StreamOptions{
		RunOptions:      RunOptions{Window: 100},
		MaxDelay:        60,
		CheckpointPath:  filepath.Join(t.TempDir(), "run.ckpt"),
		CheckpointEvery: 2,
	}
	parkAfter(t, e, chaosArrivals(t, 7, 60), opts, 5, nil)
	cp, err := LoadCheckpoint(opts.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Consumed != 5 {
		t.Fatalf("suspend checkpoint consumed %d arrivals, want 5", cp.Consumed)
	}
}

func TestInterruptWithoutCheckpointPathFails(t *testing.T) {
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	r, err := e.NewStreamRunner(StreamOptions{
		RunOptions: RunOptions{Window: 100, Start: 1, End: 1000},
		MaxDelay:   60,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Abort()
	if err := r.Suspend(); err == nil {
		t.Fatal("suspend without a checkpoint path succeeded, want a configuration error")
	}
}

// TestSuspendResumeByteIdentity: a run parked by Suspend at any arrival
// boundary and resumed over the same stream produces output byte-identical
// to an uninterrupted run — the rtecd drain contract. CheckpointEvery
// is 2 so most park points land mid-cadence, exercising the persisted
// since-checkpoint counter.
func TestSuspendResumeByteIdentity(t *testing.T) {
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	arrivals := chaosArrivals(t, 7, 60)
	base := StreamOptions{
		RunOptions: RunOptions{Window: 100},
		MaxDelay:   60,
	}
	want, err := e.RunStream(arrivals, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantCSV := csvOf(t, want.Recognition)

	// A cadence baseline for the checkpoint count: the suspend snapshot is
	// out-of-cadence and must not disturb the schedule.
	cadenceOpts := base
	cadenceOpts.CheckpointPath = filepath.Join(t.TempDir(), "cadence.ckpt")
	cadenceOpts.CheckpointEvery = 2
	cadence, err := e.RunStream(arrivals, cadenceOpts, nil)
	if err != nil {
		t.Fatal(err)
	}

	for park := 1; park < len(arrivals); park += 7 {
		opts := base
		opts.CheckpointPath = filepath.Join(t.TempDir(), "run.ckpt")
		opts.CheckpointEvery = 2
		parkAfter(t, e, arrivals, opts, park, nil)
		got, err := e.ResumeStream(opts.CheckpointPath, arrivals, opts, nil)
		if err != nil {
			t.Fatalf("park@%d: resume: %v", park, err)
		}
		if gotCSV := csvOf(t, got.Recognition); gotCSV != wantCSV {
			t.Fatalf("park@%d: resumed CSV differs from uninterrupted run:\n%s\nvs\n%s", park, gotCSV, wantCSV)
		}
		if got.Stats.Observed != want.Stats.Observed ||
			got.Stats.Accepted != want.Stats.Accepted ||
			got.Stats.Revisions != want.Stats.Revisions ||
			got.Stats.Dropped != want.Stats.Dropped {
			t.Fatalf("park@%d: resumed stats = %s, uninterrupted = %s", park, got.Stats, want.Stats)
		}
		if got.Stats.Checkpoints != cadence.Stats.Checkpoints {
			t.Fatalf("park@%d: suspend disturbed the checkpoint cadence: %d snapshots, want %d",
				park, got.Stats.Checkpoints, cadence.Stats.Checkpoints)
		}
	}
}
