package telemetry

import (
	"math"
	"net/http/httptest"
	"strings"
	"testing"
)

// promRegistry builds a small registry resembling a streaming run.
func promRegistry() *Registry {
	r := NewRegistry()
	r.Counter("rtec.windows.evaluated").Add(24)
	r.Describe("rtec.windows.evaluated", "windows evaluated at least once")
	r.Counter("rtec.checkpoint.bytes").Add(4096)
	r.Gauge("rtec.workers").Set(8)
	h := r.Histogram("rtec.window.micros", []float64{100, 1000})
	h.Observe(50)
	h.Observe(150)
	h.Observe(5000)
	return r
}

// TestWritePrometheusGolden pins the exposition byte layout: HELP/TYPE
// headers, canonical _total suffixes, sanitized names, cumulative buckets.
func TestWritePrometheusGolden(t *testing.T) {
	var sb strings.Builder
	if err := promRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# HELP rtec_checkpoint_bytes counter rtec.checkpoint.bytes (registered by rtecgen telemetry)",
		"# TYPE rtec_checkpoint_bytes counter",
		"rtec_checkpoint_bytes 4096",
		"# HELP rtec_windows_evaluated_total windows evaluated at least once",
		"# TYPE rtec_windows_evaluated_total counter",
		"rtec_windows_evaluated_total 24",
		"# HELP rtec_workers gauge rtec.workers (registered by rtecgen telemetry)",
		"# TYPE rtec_workers gauge",
		"rtec_workers 8",
		"# HELP rtec_window_micros histogram rtec.window.micros (registered by rtecgen telemetry)",
		"# TYPE rtec_window_micros histogram",
		`rtec_window_micros_bucket{le="100"} 1`,
		`rtec_window_micros_bucket{le="1000"} 2`,
		`rtec_window_micros_bucket{le="+Inf"} 3`,
		"rtec_window_micros_sum 5200",
		"rtec_window_micros_count 3",
		"",
	}, "\n")
	if sb.String() != want {
		t.Fatalf("WritePrometheus:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// TestPrometheusRoundTrip scrapes a live server handler and parses the
// exposition back, checking values and the reconstructed histogram.
func TestPrometheusRoundTrip(t *testing.T) {
	reg := promRegistry()
	srv := httptest.NewServer(NewServer(reg).Handler())
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); ct != PromContentType {
		t.Errorf("Content-Type = %q, want %q", ct, PromContentType)
	}
	metrics, err := ParsePrometheus(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	if m := metrics["rtec_windows_evaluated_total"]; m == nil || m.Value != 24 || m.Type != "counter" {
		t.Fatalf("rtec_windows_evaluated_total = %+v", m)
	}
	if m := metrics["rtec_windows_evaluated_total"]; m.Help != "windows evaluated at least once" {
		t.Errorf("help = %q", m.Help)
	}
	if m := metrics["rtec_workers"]; m == nil || m.Value != 8 || m.Type != "gauge" {
		t.Fatalf("rtec_workers = %+v", m)
	}
	h := metrics["rtec_window_micros"]
	if h == nil || h.Type != "histogram" || h.Count != 3 || h.Sum != 5200 {
		t.Fatalf("rtec_window_micros = %+v", h)
	}
	hs := h.Snapshot()
	if hs.Count != 3 || hs.Sum != 5200 || len(hs.Bounds) != 2 {
		t.Fatalf("reconstructed snapshot = %+v", hs)
	}
	if got := hs.Counts[2]; got != 1 {
		t.Errorf("overflow count = %d, want 1 (de-cumulated)", got)
	}
	if q := hs.Quantile(0.5); q <= 0 || q > 1000 {
		t.Errorf("scraped quantile = %g", q)
	}
}

// TestParsePrometheusRejectsMalformed checks the validator side of the
// parser: the CI gate relies on it to fail on structurally broken output.
func TestParsePrometheusRejectsMalformed(t *testing.T) {
	for name, doc := range map[string]string{
		"no value":           "rtec_windows_total\n",
		"bad value":          "rtec_windows_total abc\n",
		"unterminated label": "h_bucket{le=\"1\" 3\n",
		"bucket without le":  "# TYPE h histogram\nh_bucket{notle=\"1\"} 3\n",
		"non-cumulative": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 6\n",
	} {
		if _, err := ParsePrometheus(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted:\n%s", name, doc)
		}
	}
}

func TestPromName(t *testing.T) {
	for _, tc := range []struct{ kind, in, want string }{
		{"counter", "rtec.windows.evaluated", "rtec_windows_evaluated_total"},
		{"counter", "pipeline.micros.teach.o1□", "pipeline_micros_teach_o1_"},
		{"gauge", "rtec.shard.imbalance", "rtec_shard_imbalance"},
		{"histogram", "job.wait_ms", "job_wait_ms"},
	} {
		if got := PromName(tc.kind, tc.in); got != tc.want {
			t.Errorf("PromName(%s, %s) = %s, want %s", tc.kind, tc.in, got, tc.want)
		}
	}
}

func TestPromFloat(t *testing.T) {
	if got := promFloat(math.Inf(1)); got != "+Inf" {
		t.Errorf("promFloat(+inf) = %s", got)
	}
	if got := promFloat(1.5); got != "1.5" {
		t.Errorf("promFloat(1.5) = %s", got)
	}
}
