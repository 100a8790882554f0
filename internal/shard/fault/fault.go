// Package fault injects deterministic failures into the supervised shard
// runtime: a Plan names which shards fail, how, and at which window, and the
// supervisor consults per-shard Injectors at its delivery and checkpoint hook
// points. The two faults are the two the supervisor recovers from: a panic
// (restart from the last checkpoint) and a torn checkpoint (fall back to the
// previous generation). A wedged shard is not among them: the supervisor
// does not kill one, it shows as a shard whose consumed count stops
// advancing. Trigger state lives in the Injector, outside the shard process
// it fails, so a restarted shard replays past a fired trigger instead of
// dying again — which is what makes "same seed + faults produces
// byte-identical output to a fault-free run" a testable property. Plans are
// built by the tests of the recovery code; no binary injects faults.
package fault

import (
	"fmt"
	"hash/fnv"
)

// Kind is a failure mode. The zero Kind injects nothing.
type Kind int

const (
	// Panic makes the shard panic at the trigger window's delivery —
	// the supervisor catches it and restarts from the last checkpoint.
	Panic Kind = iota + 1
	// Truncate tears the shard's checkpoint file in half after the write
	// that covers the trigger window, simulating a crash mid-write or a
	// bad disk; the next restart must fall back to the previous
	// generation.
	Truncate
)

// AllShards is the Trigger.Shard scope of a fault every shard acts out.
const AllShards = -1

// Trigger is one scheduled fault.
type Trigger struct {
	Kind   Kind
	Window int  // 1-based first-time window delivery it fires at
	Shard  int  // shard scope; AllShards means every shard
	Every  bool // fire on every matching delivery, not once per run
}

// Plan is a fault schedule.
type Plan struct {
	Triggers []Trigger
}

// ForShard builds shard k's injector: the triggers in scope, each with its
// own fired latch. The injector belongs to the supervisor, not the shard
// process — trigger state survives shard restarts by design.
func (p *Plan) ForShard(k int) *Injector {
	in := &Injector{shard: k}
	if p == nil {
		return in
	}
	for _, t := range p.Triggers {
		if t.Shard == AllShards || t.Shard == k {
			in.triggers = append(in.triggers, t)
		}
	}
	in.fired = make([]bool, len(in.triggers))
	return in
}

// Injector holds one shard's scheduled faults. Not safe for concurrent use;
// the supervisor consults it only from the owning shard's process loop.
type Injector struct {
	shard    int
	triggers []Trigger
	fired    []bool
}

// OnDeliver consults the plan at the 1-based n-th first-time window
// delivery; true means the caller must panic.
func (in *Injector) OnDeliver(n int) bool {
	for i, t := range in.triggers {
		if t.Kind != Panic || t.Window != n {
			continue
		}
		if in.fired[i] && !t.Every {
			continue
		}
		in.fired[i] = true
		return true
	}
	return false
}

// OnCheckpoint consults the plan after a checkpoint write with the given
// window count; true means the caller must tear the checkpoint file.
func (in *Injector) OnCheckpoint(windows int) bool {
	for i, t := range in.triggers {
		if t.Kind != Truncate || windows < t.Window {
			continue
		}
		if in.fired[i] && !t.Every {
			continue
		}
		in.fired[i] = true
		return true
	}
	return false
}

// SeedFor derives a per-shard rng seed from the run seed and the shard
// name, fnv-64a over "seed|name" — so every shard's backoff jitter is
// deterministic and distinct.
func SeedFor(seed int64, name string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", seed, name)
	return int64(h.Sum64())
}
