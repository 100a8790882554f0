// Package fault injects deterministic failures into the supervised shard
// runtime: a Plan parsed from a compact spec names which shards fail, how,
// and at which window, and the supervisor consults per-shard Injectors at
// its delivery and checkpoint hook points. Trigger state lives in the
// Injector, outside the shard process it kills, so a restarted shard replays
// past a fired trigger instead of dying again — which is what makes "same
// seed + faults produces byte-identical output to a fault-free run" a
// testable property.
//
// Spec grammar (comma-separated triggers):
//
//	kind@wN[:sK][!]
//
// where kind is panic, hang or ckpt-truncate, N is the 1-based window
// delivery the trigger fires at, the optional :sK scopes it to shard K
// (default: every shard), and a trailing ! makes it fire on every matching
// delivery instead of once per run. Examples:
//
//	panic@w3              every shard panics at its 3rd window
//	hang@w2:s1            shard 1 hangs at its 2nd window
//	ckpt-truncate@w2,panic@w3:s0!
package fault

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
)

// Kind is a failure mode.
type Kind int

const (
	// None is the zero action: no fault.
	None Kind = iota
	// Panic makes the shard panic at the trigger window's delivery —
	// the supervisor catches it and restarts from the last checkpoint.
	Panic
	// Hang blocks the shard at the trigger window's delivery until the
	// supervisor's deadline watchdog kills it.
	Hang
	// Truncate tears the shard's checkpoint file in half after the write
	// that covers the trigger window, simulating a crash mid-write or a
	// bad disk; the next restart must fall back to the previous
	// generation.
	Truncate
)

func (k Kind) String() string {
	switch k {
	case Panic:
		return "panic"
	case Hang:
		return "hang"
	case Truncate:
		return "ckpt-truncate"
	default:
		return "none"
	}
}

// Trigger is one scheduled fault.
type Trigger struct {
	Kind   Kind
	Window int  // 1-based first-time window delivery it fires at
	Shard  int  // shard scope; -1 means every shard
	Every  bool // fire on every matching delivery, not once per run
}

func (t Trigger) String() string {
	s := fmt.Sprintf("%s@w%d", t.Kind, t.Window)
	if t.Shard >= 0 {
		s += fmt.Sprintf(":s%d", t.Shard)
	}
	if t.Every {
		s += "!"
	}
	return s
}

// Plan is a parsed fault schedule.
type Plan struct {
	Triggers []Trigger
}

// Zero reports whether the plan schedules nothing.
func (p *Plan) Zero() bool { return p == nil || len(p.Triggers) == 0 }

// Parse reads the spec grammar. An empty spec is the zero plan.
func Parse(spec string) (*Plan, error) {
	p := &Plan{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		raw := part
		t := Trigger{Shard: -1}
		if strings.HasSuffix(part, "!") {
			t.Every = true
			part = part[:len(part)-1]
		}
		kind, rest, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("shard fault %q: want kind@wN[:sK][!]", raw)
		}
		switch kind {
		case "panic":
			t.Kind = Panic
		case "hang":
			t.Kind = Hang
		case "ckpt-truncate":
			t.Kind = Truncate
		default:
			return nil, fmt.Errorf("shard fault %q: unknown kind %q (want panic, hang or ckpt-truncate)", raw, kind)
		}
		win, scope, scoped := strings.Cut(rest, ":")
		if !strings.HasPrefix(win, "w") {
			return nil, fmt.Errorf("shard fault %q: window %q must look like w3", raw, win)
		}
		n, err := strconv.Atoi(win[1:])
		if err != nil || n < 1 {
			return nil, fmt.Errorf("shard fault %q: window %q must be a positive number", raw, win)
		}
		t.Window = n
		if scoped {
			if !strings.HasPrefix(scope, "s") {
				return nil, fmt.Errorf("shard fault %q: shard scope %q must look like s1", raw, scope)
			}
			k, err := strconv.Atoi(scope[1:])
			if err != nil || k < 0 {
				return nil, fmt.Errorf("shard fault %q: shard scope %q must be a non-negative number", raw, scope)
			}
			t.Shard = k
		}
		p.Triggers = append(p.Triggers, t)
	}
	return p, nil
}

// String renders the plan back in spec grammar.
func (p *Plan) String() string {
	if p.Zero() {
		return ""
	}
	parts := make([]string, len(p.Triggers))
	for i, t := range p.Triggers {
		parts[i] = t.String()
	}
	return strings.Join(parts, ",")
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
		if t.Shard == -1 || t.Shard == k {
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
	count    int64
}

// OnDeliver consults the plan at the 1-based n-th first-time window
// delivery and returns the fault to act out (None, Panic or Hang).
func (in *Injector) OnDeliver(n int) Kind {
	for i, t := range in.triggers {
		if t.Kind == Truncate || t.Window != n {
			continue
		}
		if in.fired[i] && !t.Every {
			continue
		}
		in.fired[i] = true
		in.count++
		return t.Kind
	}
	return None
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
		in.count++
		return true
	}
	return false
}

// Fired returns how many faults this injector has acted out.
func (in *Injector) Fired() int64 { return in.count }

// SeedFor derives a per-shard rng seed from the run seed and the shard
// name, fnv-64a over "seed|name" — so every shard's backoff jitter is
// deterministic and distinct.
func SeedFor(seed int64, name string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", seed, name)
	return int64(h.Sum64())
}
