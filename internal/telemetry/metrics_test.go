package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.count")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a.count") != c {
		t.Fatal("Counter is not idempotent per name")
	}
	g := r.Gauge("a.gauge")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Histogram("x", nil).Observe(1)
	r.Reset()
	if !r.Snapshot().Empty() {
		t.Fatal("nil registry snapshot not empty")
	}

	var tel *Telemetry
	tel.Counter("x").Inc()
	tel.Gauge("x").Set(1)
	tel.Histogram("x").ObserveDuration(time.Second)
	sp := tel.Span("root")
	sp.Span("child").End()
	sp.SetAttrs(String("k", "v"))
	sp.End()
	tel.Logger().Info("discarded")
}

// TestHistogramBucketEdges pins the bucket semantics: v lands in the first
// bucket with v <= bound; values beyond the last bound land in overflow.
func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{10, 100, 1000})
	for _, v := range []float64{0, 10, 10.5, 100, 1000, 1000.1, 5000} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["h"]
	wantCounts := []int64{2, 2, 1, 2} // le10: {0,10}; le100: {10.5,100}; le1000: {1000}; inf: {1000.1,5000}
	if len(s.Counts) != len(wantCounts) {
		t.Fatalf("bucket count = %d, want %d", len(s.Counts), len(wantCounts))
	}
	for i, want := range wantCounts {
		if s.Counts[i] != want {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], want)
		}
	}
	if s.Count != 7 {
		t.Errorf("count = %d, want 7", s.Count)
	}
	if want := 0.0 + 10 + 10.5 + 100 + 1000 + 1000.1 + 5000; s.Sum != want {
		t.Errorf("sum = %g, want %g", s.Sum, want)
	}
}

func TestHistogramUnsortedBoundsAreSorted(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1000, 10, 100})
	got := h.Bounds()
	want := []float64{10, 100, 1000}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bounds = %v, want %v", got, want)
		}
	}
}

// TestConcurrentCounters exercises the lock-free instruments from many
// goroutines; `go test -race ./internal/telemetry/...` is part of ci.sh.
func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared")
			h := r.Histogram("lat", []float64{1, 2, 4})
			for j := 0; j < perG; j++ {
				c.Inc()
				r.Gauge("g").Add(1)
				h.Observe(float64(j % 5))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := r.Gauge("g").Value(); got != goroutines*perG {
		t.Fatalf("gauge = %d, want %d", got, goroutines*perG)
	}
	if got := r.Snapshot().Histograms["lat"].Count; got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
}

func TestSnapshotResetAndText(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.two").Add(2)
	r.Counter("a.one").Add(1)
	r.Gauge("g").Set(9)
	r.Histogram("h", []float64{1, 2}).Observe(1.5)

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := "counter a.one_total 1\ncounter b.two_total 2\ngauge g 9\nhistogram h count=1 sum=1.5 le1=0 le2=1 inf=0\n"
	if sb.String() != want {
		t.Fatalf("WriteText:\n%s\nwant:\n%s", sb.String(), want)
	}

	r.Reset()
	s := r.Snapshot()
	if s.Counters["a.one"] != 0 || s.Gauges["g"] != 0 || s.Histograms["h"].Count != 0 {
		t.Fatalf("Reset left values: %+v", s)
	}
	// Names survive a reset so dumps still document instrumented paths.
	if _, ok := s.Counters["b.two"]; !ok {
		t.Fatal("Reset dropped registered names")
	}
}

// TestCanonicalName pins the unit-suffix rules of the text dump and the
// Prometheus exposition: counters without a unit token anywhere in the name
// gain _total; everything else is untouched.
func TestCanonicalName(t *testing.T) {
	for _, tc := range []struct{ kind, name, want string }{
		{"counter", "rtec.windows.evaluated", "rtec.windows.evaluated_total"},
		{"counter", "rtec.shard.restarts", "rtec.shard.restarts_total"},
		{"counter", "rtec.checkpoint.bytes", "rtec.checkpoint.bytes"},
		{"counter", "pipeline.micros.teach.o1", "pipeline.micros.teach.o1"},
		{"counter", "rtec.checkpoint.write_micros", "rtec.checkpoint.write_micros"},
		{"counter", "job.wait_ms", "job.wait_ms"},
		{"counter", "already.total", "already.total"},
		{"gauge", "rtec.workers", "rtec.workers"},
		{"histogram", "rtec.window.micros", "rtec.window.micros"},
	} {
		if got := CanonicalName(tc.kind, tc.name); got != tc.want {
			t.Errorf("CanonicalName(%s, %s) = %s, want %s", tc.kind, tc.name, got, tc.want)
		}
	}
}

// TestHistogramQuantile checks the interpolated quantile estimate against
// known distributions recorded into fine-grained buckets.
func TestHistogramQuantile(t *testing.T) {
	bounds := make([]float64, 100)
	for i := range bounds {
		bounds[i] = float64((i + 1) * 10) // 10, 20, ..., 1000
	}

	// Uniform 1..1000: p50 ~ 500, p99 ~ 990, p10 ~ 100.
	r := NewRegistry()
	u := r.Histogram("u", bounds)
	for v := 1; v <= 1000; v++ {
		u.Observe(float64(v))
	}
	us := r.Snapshot().Histograms["u"]
	for _, tc := range []struct{ q, want, tol float64 }{
		{0.10, 100, 10}, {0.50, 500, 10}, {0.99, 990, 10},
	} {
		if got := us.Quantile(tc.q); got < tc.want-tc.tol || got > tc.want+tc.tol {
			t.Errorf("uniform Quantile(%g) = %g, want %g ± %g", tc.q, got, tc.want, tc.tol)
		}
	}

	// Geometric-ish long tail: 900 obs at 5, 90 at 55, 9 at 505, 1 at 2000
	// (overflow). p50 sits in the first bucket, p99 lands on the 990th
	// observation (the last 55), p99.5 reaches the 505s, and p99.99 falls in
	// the overflow bucket and is clamped to the largest finite bound.
	g := r.Histogram("g", bounds)
	for i := 0; i < 900; i++ {
		g.Observe(5)
	}
	for i := 0; i < 90; i++ {
		g.Observe(55)
	}
	for i := 0; i < 9; i++ {
		g.Observe(505)
	}
	g.Observe(2000)
	gs := r.Snapshot().Histograms["g"]
	if got := gs.Quantile(0.50); got <= 0 || got > 10 {
		t.Errorf("tail Quantile(0.5) = %g, want in (0, 10]", got)
	}
	if got := gs.Quantile(0.99); got <= 50 || got > 60 {
		t.Errorf("tail Quantile(0.99) = %g, want in (50, 60]", got)
	}
	if got := gs.Quantile(0.995); got <= 500 || got > 510 {
		t.Errorf("tail Quantile(0.995) = %g, want in (500, 510]", got)
	}
	if got := gs.Quantile(0.9999); got != 1000 {
		t.Errorf("tail Quantile(0.9999) = %g, want clamp to 1000", got)
	}

	// Degenerate cases: empty histogram and out-of-range q.
	e := r.Histogram("e", bounds)
	_ = e
	es := r.Snapshot().Histograms["e"]
	if got := es.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile(0.5) = %g, want 0", got)
	}
	if got := us.Quantile(1.5); got < 990 {
		t.Errorf("clamped Quantile(1.5) = %g, want >= p99", got)
	}
}
