package shard

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"rtecgen/internal/rtec"
	"rtecgen/internal/stream"
)

// admissionArrivals is a stream dense enough that every shard retains far
// more than tightDepth arrivals between per-window checkpoints.
func admissionArrivals() stream.Stream { return testArrivals(7, 2000, 0) }

const tightDepth = 8

// TestAdmissionBoundsBacklogNotRetention pins the admission contract on the
// real clock with a one-second PollQuantum, so it holds on any host: a
// healthy consumer admits a long in-order stream without a single watchdog
// tick on the arrival path (polling per arrival would take half an hour),
// the backlog never passes QueueDepth while the retained queue does, and
// the merged result is the unsharded one byte for byte.
func TestAdmissionBoundsBacklogNotRetention(t *testing.T) {
	arrivals := admissionArrivals()
	sup := mustSupervisor(t, arrivals, "", func(o *Options) {
		o.QueueDepth = tightDepth
		o.PollQuantum = time.Second
	})
	begin := time.Now()
	maxRetained := 0
	for i, e := range arrivals {
		if err := sup.Ingest(e); err != nil {
			t.Fatal(err)
		}
		// Only push grows the backlog, so its peak is visible right after.
		for _, p := range sup.procs {
			p.mu.Lock()
			backlog, retained := p.backlog(), len(p.q)
			p.mu.Unlock()
			if backlog > tightDepth {
				t.Fatalf("arrival %d: shard %d backlog %d exceeds QueueDepth %d", i, p.id, backlog, tightDepth)
			}
			if retained > maxRetained {
				maxRetained = retained
			}
		}
	}
	res, err := sup.Close()
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(begin); took > 5*time.Second {
		t.Fatalf("ingest+close took %v: an arrival waited on the watchdog tick", took)
	}
	if maxRetained <= tightDepth {
		t.Fatalf("retention peaked at %d, never past QueueDepth %d — the stream does not exercise the distinction", maxRetained, tightDepth)
	}
	var overflow int64
	for _, st := range res.Shards {
		overflow += st.Overflow
	}
	if overflow == 0 {
		t.Fatal("no admission was counted as overflow although retention passed QueueDepth")
	}
	first, last := arrivals.TimeRange()
	want, err := testEngine(t, 1).RunStream(arrivals, rtec.StreamOptions{
		RunOptions: rtec.RunOptions{Window: 100, Start: first, End: last + 1},
		MaxDelay:   60,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := csvOf(t, want.Recognition), csvOf(t, res.Recognition); a != b {
		t.Fatalf("sharded merge differs from unsharded run:\n%s\nvs\n%s", b, a)
	}
}

// TestOverflowErrorRetryConverges is the livelock regression: with
// QueueDepth below one checkpoint interval, the strict policy used to reject
// every arrival once QueueDepth were retained, forever. Rejections now mean
// the consumer is behind, so retrying admits the whole stream, and the
// result is the blocking policy's.
func TestOverflowErrorRetryConverges(t *testing.T) {
	arrivals := admissionArrivals()
	run := func(policy OverflowPolicy) (*Result, int) {
		sup := mustSupervisor(t, arrivals, "", func(o *Options) {
			o.QueueDepth = tightDepth
			o.Overflow = policy
		})
		rejected := 0
		for i, e := range arrivals {
			err := sup.Ingest(e)
			for tries := 0; errors.Is(err, ErrQueueFull); tries++ {
				if tries == 1_000_000 {
					t.Fatalf("arrival %d still rejected after %d retries: %v", i, tries, err)
				}
				rejected++
				runtime.Gosched() // let the consumer take what it is behind on
				err = sup.Ingest(e)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		res, err := sup.Close()
		if err != nil {
			t.Fatal(err)
		}
		return res, rejected
	}
	want, _ := run(OverflowBlock)
	got, rejected := run(OverflowError)
	t.Logf("%d rejections retried", rejected)
	if a, b := csvOf(t, want.Recognition), csvOf(t, got.Recognition); a != b {
		t.Fatalf("retried strict run differs from the blocking run:\n%s\nvs\n%s", b, a)
	}
	if want.Stats != got.Stats {
		t.Fatalf("stats differ: %s vs %s", got.Stats, want.Stats)
	}
}
