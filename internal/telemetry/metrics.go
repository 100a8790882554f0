package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value. A nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add shifts the gauge value by n.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefBuckets are the default histogram bucket upper bounds, in microseconds:
// engine windows and pipeline stages span ~100µs to seconds.
var DefBuckets = []float64{50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000, 500000, 1e6, 2.5e6}

// Histogram is a fixed-bucket histogram: observation v lands in the first
// bucket whose upper bound satisfies v <= bound, or in the overflow bucket.
// Observations are lock-free; a nil *Histogram is a no-op.
type Histogram struct {
	bounds []float64      // sorted upper bounds
	counts []atomic.Int64 // len(bounds)+1, last is overflow (+Inf)
	sum    atomic.Uint64  // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, i.e. v <= bound
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a duration in microseconds, the unit of
// DefBuckets. No-op on a nil histogram.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h == nil {
		return
	}
	h.Observe(float64(d.Microseconds()))
}

// Bounds returns the bucket upper bounds.
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"` // len(Bounds)+1, last is overflow
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Quantile estimates the q-quantile (0 < q < 1) of the recorded
// observations by linear interpolation inside the bucket that contains the
// target rank — the same estimate Prometheus's histogram_quantile computes.
// The first bucket interpolates from zero; ranks landing in the overflow
// bucket return the largest finite bound (the estimate cannot exceed what
// the histogram resolved). An empty histogram returns 0.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	var cum float64
	for i, bound := range h.Bounds {
		n := float64(h.Counts[i])
		if cum+n >= rank && n > 0 {
			lower := 0.0
			if i > 0 {
				lower = h.Bounds[i-1]
			}
			return lower + (bound-lower)*((rank-cum)/n)
		}
		cum += n
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Snapshot is a point-in-time copy of a registry, with deterministic maps
// (render with WriteText for deterministic ordering).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Empty reports whether the snapshot carries no metrics at all.
func (s Snapshot) Empty() bool {
	return len(s.Counters) == 0 && len(s.Gauges) == 0 && len(s.Histograms) == 0
}

// Registry is a concurrency-safe named-metric store. Metric lookup takes a
// mutex; the returned instruments update lock-free, so hot loops should
// hoist lookups out of the loop. A nil *Registry returns nil instruments.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	help     map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		help:     map[string]string{},
	}
}

// Describe attaches help text to a metric name at registration time. The
// text surfaces as the HELP line of the Prometheus exposition; metrics
// without a description are exposed with a generic one. Nil-safe.
func (r *Registry) Describe(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.help[name] = help
	r.mu.Unlock()
}

// helpFor returns the registered help text for a raw metric name.
func (r *Registry) helpFor(name string) string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.help[name]
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use with the
// given bucket bounds (DefBuckets when nil). The bounds of an existing
// histogram are not changed.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DefBuckets
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot copies every metric's current value.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Bounds: h.Bounds(),
			Counts: make([]int64, len(h.counts)),
			Sum:    math.Float64frombits(h.sum.Load()),
		}
		for i := range h.counts {
			n := h.counts[i].Load()
			hs.Counts[i] = n
			hs.Count += n
		}
		s.Histograms[name] = hs
	}
	return s
}

// Reset zeroes every metric, keeping the registered names and bucket
// layouts (so long-running servers can emit deltas).
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.hists {
		for i := range h.counts {
			h.counts[i].Store(0)
		}
		h.sum.Store(0)
	}
}

// unitTokens are the unit suffixes recognised in metric names, as whole
// dot-separated segments ("rtec.checkpoint.bytes") or as underscore
// suffixes of a segment ("rtec.checkpoint.write_micros").
// They may also appear mid-name for families keyed by a trailing label
// ("rtec.stratum.micros.s0").
var unitTokens = []string{"micros", "ms", "bytes", "total", "ratio"}

// hasUnitToken reports whether any dot-separated segment of name is (or
// ends in) a recognised unit token.
func hasUnitToken(name string) bool {
	for _, seg := range strings.Split(name, ".") {
		for _, u := range unitTokens {
			if seg == u || strings.HasSuffix(seg, "_"+u) {
				return true
			}
		}
	}
	return false
}

// CanonicalName returns the dump name of a metric: counters whose name
// carries no unit token get the conventional "_total" suffix, so every
// counter in the text dump and the Prometheus exposition reads with an
// explicit unit ("rtec.revisions_total", "rtec.checkpoint.bytes"). Gauges
// and histograms are instantaneous or carry their unit in the name already
// and are returned unchanged.
func CanonicalName(kind, name string) string {
	if kind == "counter" && !hasUnitToken(name) {
		return name + "_total"
	}
	return name
}

// WriteText renders the registry deterministically, one metric per line,
// sorted by kind then name, with canonical unit suffixes:
//
//	counter rtec.windows.evaluated_total 24
//	gauge rtec.stream.watermark_age 900
//	histogram rtec.window.e2e_micros count=24 sum=48211 le500=3 le1000=11 ... inf=0
//
// Zero-valued metrics are included: a registered name documents an
// instrumented code path even when it never fired.
func (r *Registry) WriteText(w io.Writer) error {
	s := r.Snapshot()
	return s.WriteText(w)
}

// WriteText renders a snapshot in the deterministic text format. Names are
// canonicalised (see CanonicalName) but the sort order is that of the raw
// registered names, so the dump order is stable under renaming.
func (s Snapshot) WriteText(w io.Writer) error {
	for _, name := range sortedKeys(s.Counters) {
		if _, err := fmt.Fprintf(w, "counter %s %d\n", CanonicalName("counter", name), s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		if _, err := fmt.Fprintf(w, "gauge %s %d\n", CanonicalName("gauge", name), s.Gauges[name]); err != nil {
			return err
		}
	}
	hnames := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		h := s.Histograms[name]
		if _, err := fmt.Fprintf(w, "histogram %s count=%d sum=%g", name, h.Count, h.Sum); err != nil {
			return err
		}
		for i, b := range h.Bounds {
			if _, err := fmt.Fprintf(w, " le%g=%d", b, h.Counts[i]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, " inf=%d\n", h.Counts[len(h.Bounds)]); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
