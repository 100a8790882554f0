package main

import (
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	// A tail percentile is reported only with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 0.90, true}, {99, 0.90, false}, {27, 0.90, false},
		{1000, 0.99, true}, {999, 0.99, false},
		{40, 0.75, true}, {39, 0.75, false},
		{1, 0.50, true}, // the median is always stated
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, %g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	for n, want := range map[int]float64{5: 0.5, 39: 0.5, 40: 0.75, 100: 0.90, 200: 0.95, 1000: 0.99, 10000: 0.999} {
		if got := highestSupported(n); got != want {
			t.Errorf("highestSupported(%d) = %g, want %g", n, got, want)
		}
	}

	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if got := quantile(xs, 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %g, want 50", got)
	}
	if got := tail(xs, 0.90); got != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90 (nearest rank, ten samples beyond)", got)
	}
	if got := tail(xs[:99], 0.90); got != 0 {
		t.Errorf("p90 of 99 samples = %g, want 0: the sample does not support it", got)
	}
	if got := tail(xs, 0.99); got != 0 {
		t.Errorf("p99 of 100 samples = %g, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if median(nil) != 0 || quantile(nil, 0.5) != 0 {
		t.Error("empty samples must read 0")
	}
}

func TestSelfCostKeepsNegativeDifferences(t *testing.T) {
	ms := time.Millisecond
	if got := selfCost(100*ms, 30*ms, 20*ms); got != 50*ms {
		t.Errorf("selfCost = %v, want 50ms", got)
	}
	// A rung cheaper than the rungs below it reports that, never 0.
	if got := selfCost(40*ms, 30*ms, 20*ms); got != -10*ms {
		t.Errorf("selfCost = %v, want -10ms", got)
	}
	if got := perEvent(selfCost(40*ms, 50*ms), 1000); got != -10000 {
		t.Errorf("per-event self cost = %g ns, want -10000", got)
	}
	if got := selfCost(40 * ms); got != 40*ms {
		t.Errorf("the bottom rung's self cost is its wall, got %v", got)
	}

	l := &ladder{wall: map[string]time.Duration{"rtec.stream": 70 * ms, "journal": 90 * ms}}
	if got := l.below("shard", "journal", "rtec.checkpoint", "rtec.stream"); got != 90*ms {
		t.Errorf("below = %v, want the nearest rung that ran (journal, 90ms)", got)
	}
	if got := l.below("shard"); got != 0 {
		t.Errorf("below = %v, want 0 when no rung below ran", got)
	}
}
