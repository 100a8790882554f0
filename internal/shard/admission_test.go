package shard

import (
	"testing"
	"time"

	"rtecgen/internal/rtec"
	"rtecgen/internal/stream"
)

// admissionArrivals is a stream dense enough that the engine retains far
// more than tightDepth arrivals between per-window checkpoints.
func admissionArrivals() stream.Stream { return testArrivals(7, 2000, 0) }

const tightDepth = 8

// TestAdmissionBoundsBacklogNotRetention pins the admission contract on the
// real clock: a healthy consumer admits a long in-order stream with every
// blocked arrival woken by the consumer itself (a one-second wait per
// arrival would take half an hour), the backlog never passes QueueDepth
// while the retained queue does, and the result is the one a lone
// StreamRunner gives, byte for byte.
func TestAdmissionBoundsBacklogNotRetention(t *testing.T) {
	arrivals := admissionArrivals()
	sup := mustSupervisor(t, arrivals, nil, func(o *Options) {
		o.QueueDepth = tightDepth
	})
	begin := time.Now()
	maxRetained := 0
	for i, e := range arrivals {
		if err := sup.Ingest(e); err != nil {
			t.Fatal(err)
		}
		// Only push grows the backlog, so its peak is visible right after.
		p := sup.p
		p.mu.Lock()
		backlog, retained := p.backlog(), len(p.q)
		p.mu.Unlock()
		if backlog > tightDepth {
			t.Fatalf("arrival %d: backlog %d exceeds QueueDepth %d", i, backlog, tightDepth)
		}
		maxRetained = max(maxRetained, retained)
	}
	res, err := sup.Close()
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(begin); took > 5*time.Second {
		t.Fatalf("ingest+close took %v: an arrival waited on something other than its consumer", took)
	}
	if maxRetained <= tightDepth {
		t.Fatalf("retention peaked at %d, never past QueueDepth %d — the stream does not exercise the distinction", maxRetained, tightDepth)
	}
	if res.Shards[0].Overflow == 0 {
		t.Fatal("no admission was counted as overflow although retention passed QueueDepth")
	}
	first, last := arrivals.TimeRange()
	want, err := testEngine(t).RunStream(arrivals, rtec.StreamOptions{
		RunOptions: rtec.RunOptions{Window: 100, Start: first, End: last + 1},
		MaxDelay:   60,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := csvOf(t, want.Recognition), csvOf(t, res.Recognition); a != b {
		t.Fatalf("supervised run differs from a lone runner's:\n%s\nvs\n%s", b, a)
	}
}
