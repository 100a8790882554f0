package fault

import "testing"

func TestScopeAndLatch(t *testing.T) {
	p := &Plan{Triggers: []Trigger{
		{Kind: Panic, Window: 2, Shard: 1},
		{Kind: Hang, Window: 3, Shard: AllShards},
	}}
	s0, s1 := p.ForShard(0), p.ForShard(1)

	// Shard 0 is out of the panic's scope; the unscoped hang applies.
	if got := s0.OnDeliver(2); got != None {
		t.Fatalf("s0 window 2 = %v, want none", got)
	}
	if got := s0.OnDeliver(3); got != Hang {
		t.Fatalf("s0 window 3 = %v, want hang", got)
	}
	// Fire-once: the replay after a restart passes window 3 cleanly.
	if got := s0.OnDeliver(3); got != None {
		t.Fatalf("s0 window 3 replay = %v, want none (latched)", got)
	}

	if got := s1.OnDeliver(2); got != Panic {
		t.Fatalf("s1 window 2 = %v, want panic", got)
	}
	if got := s1.OnDeliver(2); got != None {
		t.Fatalf("s1 window 2 replay = %v, want none (latched)", got)
	}
}

func TestEveryRepeats(t *testing.T) {
	p := &Plan{Triggers: []Trigger{{Kind: Panic, Window: 1, Shard: AllShards, Every: true}}}
	in := p.ForShard(0)
	for i := 0; i < 3; i++ {
		if got := in.OnDeliver(1); got != Panic {
			t.Fatalf("repeat %d = %v, want panic", i, got)
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
	if in.OnDeliver(1) != None || in.OnCheckpoint(1) {
		t.Fatal("nil plan fired")
	}
}
