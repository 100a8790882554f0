package main

import (
	"runtime"
	"testing"
)

// raceDetector is set when the tests run under the race detector, whose
// runtime allocates on its own: an allocation ceiling does not hold there.
var raceDetector bool

// The paper job's allocation ceilings, in bytes and objects for one
// -fig all -csv -vessels 14 -seed 7 -workers 1 run. They are counts of one
// deterministic run on one goroutine, so they repeat across hosts; each
// sits about 10 % above the figure measured when it was committed, 37.1 MB
// in 514 700 objects (51.8 MB in 725 000 before rule evaluation stopped
// making per-anchor garbage and the front end stopped copying invariants
// per call; EXPERIMENTS.md "Reference figures"). Go's collector is a quarter of the
// job's CPU at its default GOGC, and every byte here is marked or swept, so
// an evaluator or front end that starts building per-anchor or per-call
// garbage again fails here before it shows in the benchmark's wall_s.
const (
	figuresJobBytesCeiling   = 41_000_000
	figuresJobObjectsCeiling = 566_000
)

func TestFiguresJobAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("full recognition run")
	}
	if raceDetector {
		t.Skip("the race detector's runtime allocates on its own")
	}
	o := options{fig: "all", csv: true, vessels: 14, seed: 7, window: 3600, workers: 1}
	// The first run fills what a process builds once (the gold event
	// description, the scorer's caches); the second is what every further
	// run of the job costs.
	captureRun(t, o)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	captureRun(t, o)
	runtime.ReadMemStats(&after)
	bytes, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("one -fig all run: %.1f MB in %d objects (ceilings %.1f MB, %d)",
		float64(bytes)/1e6, objects, float64(figuresJobBytesCeiling)/1e6, figuresJobObjectsCeiling)
	if bytes > figuresJobBytesCeiling {
		t.Errorf("one -fig all run allocates %d bytes, ceiling %d", bytes, figuresJobBytesCeiling)
	}
	if objects > figuresJobObjectsCeiling {
		t.Errorf("one -fig all run allocates %d objects, ceiling %d", objects, figuresJobObjectsCeiling)
	}
}
