package fault

import "testing"

func TestScopeAndLatch(t *testing.T) {
	p := &Plan{Triggers: []Trigger{
		{Kind: Panic, Window: 2, Shard: 1},
		{Kind: Panic, Window: 3, Shard: AllShards},
	}}
	s0, s1 := p.ForShard(0), p.ForShard(1)

	// Shard 0 is out of the first panic's scope; the unscoped one applies.
	if s0.OnDeliver(2) {
		t.Fatal("s0 window 2 panicked, want none")
	}
	if !s0.OnDeliver(3) {
		t.Fatal("s0 window 3 did not panic")
	}
	// Fire-once: the replay after a restart passes window 3 cleanly.
	if s0.OnDeliver(3) {
		t.Fatal("s0 window 3 replay panicked, want none (latched)")
	}

	if !s1.OnDeliver(2) {
		t.Fatal("s1 window 2 did not panic")
	}
	if s1.OnDeliver(2) {
		t.Fatal("s1 window 2 replay panicked, want none (latched)")
	}
}

func TestEveryRepeats(t *testing.T) {
	p := &Plan{Triggers: []Trigger{{Kind: Panic, Window: 1, Shard: AllShards, Every: true}}}
	in := p.ForShard(0)
	for i := 0; i < 3; i++ {
		if !in.OnDeliver(1) {
			t.Fatalf("repeat %d did not panic", i)
		}
	}
}

func TestOnCheckpoint(t *testing.T) {
	p := &Plan{Triggers: []Trigger{{Kind: Truncate, Window: 2, Shard: AllShards}}}
	in := p.ForShard(0)
	if in.OnCheckpoint(1) {
		t.Fatal("fired below the trigger window")
	}
	if !in.OnCheckpoint(2) {
		t.Fatal("did not fire at the trigger window")
	}
	if in.OnCheckpoint(3) {
		t.Fatal("fired twice")
	}
	// A panic trigger never truncates.
	p2 := &Plan{Triggers: []Trigger{{Kind: Panic, Window: 1, Shard: AllShards}}}
	if p2.ForShard(0).OnCheckpoint(5) {
		t.Fatal("panic trigger truncated a checkpoint")
	}
}

func TestSeedForDistinct(t *testing.T) {
	a, b := SeedFor(7, "shard-0"), SeedFor(7, "shard-1")
	if a == b {
		t.Fatal("per-shard seeds collide")
	}
	if a != SeedFor(7, "shard-0") {
		t.Fatal("seed not deterministic")
	}
}

func TestZero(t *testing.T) {
	var p *Plan
	in := p.ForShard(3)
	if in.OnDeliver(1) || in.OnCheckpoint(1) {
		t.Fatal("nil plan fired")
	}
}
