package shard

import (
	"testing"
	"time"

	"rtecgen/internal/rtec"
	"rtecgen/internal/stream"
)

// admissionArrivals is a long in-order stream: the engine falls behind a
// queue of tightDepth arrivals again and again.
func admissionArrivals() stream.Stream { return testArrivals(7, 2000, 0) }

const tightDepth = 8

// TestAdmissionBoundsBacklogNotRetention pins the admission contract on the
// real clock: a healthy consumer admits a long in-order stream with every
// blocked arrival woken by the consumer itself (a one-second wait per
// arrival would take half an hour), the queue — the backlog, the one
// thing it holds, since consumed arrivals are not retained — never passes
// QueueDepth, and the result is the one a lone StreamRunner gives, byte
// for byte.
func TestAdmissionBoundsBacklogNotRetention(t *testing.T) {
	arrivals := admissionArrivals()
	sup := mustSupervisor(t, arrivals, nil, func(o *Options) {
		o.QueueDepth = tightDepth
	})
	begin := time.Now()
	full := 0
	for i, e := range arrivals {
		if err := sup.Ingest(e); err != nil {
			t.Fatal(err)
		}
		// Only push grows the backlog, so its peak is visible right after.
		p := sup.p
		p.mu.Lock()
		backlog := len(p.q)
		p.mu.Unlock()
		if backlog > tightDepth {
			t.Fatalf("arrival %d: backlog %d exceeds QueueDepth %d", i, backlog, tightDepth)
		}
		if backlog == tightDepth {
			full++
		}
	}
	res, err := sup.Close()
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(begin); took > 5*time.Second {
		t.Fatalf("ingest+close took %v: an arrival waited on something other than its consumer", took)
	}
	if full == 0 {
		t.Fatalf("the backlog never reached QueueDepth %d: the stream does not exercise the bound", tightDepth)
	}
	if st := res.Shards[0]; st.Overflow != 0 {
		t.Fatalf("status %+v: overflow is frozen at 0", st)
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
