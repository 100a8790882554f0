package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rtecgen/internal/rtec"
	"rtecgen/internal/telemetry"
)

func TestServerHealthz(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewServer(reg)
	s.Ready("engine", func() error { return nil })
	s.Ready("journal", func() error { return nil })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (int, []byte) {
		res, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		body, err := io.ReadAll(res.Body)
		if err != nil {
			t.Fatal(err)
		}
		return res.StatusCode, body
	}

	code, body := get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz = %d: %s", code, body)
	}
	var rep struct {
		Status string            `json:"status"`
		Checks map[string]string `json:"checks"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Status != "ok" || rep.Checks["engine"] != "ok" || rep.Checks["journal"] != "ok" {
		t.Fatalf("healthy report = %+v", rep)
	}

	// A failing subsystem degrades the whole endpoint to 503 and carries
	// the failure reason alongside the still-healthy checks.
	s.Ready("journal", func() error { return errors.New("disk full") })
	code, body = get("/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("degraded /healthz = %d", code)
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Status != "degraded" || rep.Checks["journal"] != "disk full" || rep.Checks["engine"] != "ok" {
		t.Fatalf("degraded report = %+v", rep)
	}
}

func TestServerDebugEndpoints(t *testing.T) {
	ts := httptest.NewServer(NewServer(telemetry.NewRegistry()).Handler())
	defer ts.Close()
	for _, path := range []string{"/debug/vars", "/debug/pprof/"} {
		res, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Errorf("%s = %d, want 200", path, res.StatusCode)
		}
	}
}

// TestServerStartShutdown exercises the real listener path rtecd uses: bind
// port 0, scrape over TCP, then shut down and refuse new connections.
func TestServerStartShutdown(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("rtec.windows.evaluated").Add(3)
	s := NewServer(reg)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if addr == "" || s.Addr() != addr {
		t.Fatalf("Addr() = %q, Start returned %q", s.Addr(), addr)
	}
	res, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "rtec_windows_evaluated_total 3") {
		t.Fatalf("scrape missing counter:\n%s", body)
	}
	if err := s.Shutdown(time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("server still accepting after Shutdown")
	}
}

// TestServerShutdownDrainsInFlight starts a scrape whose readiness check
// blocks mid-request, calls Shutdown concurrently, and asserts the scrape
// still completes with a full response instead of a reset connection.
func TestServerShutdownDrainsInFlight(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewServer(reg)
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.Ready("slow", func() error {
		once.Do(func() { close(entered) })
		<-release
		return nil
	})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		res, err := http.Get("http://" + addr + "/healthz")
		if err != nil {
			got <- err
			return
		}
		defer res.Body.Close()
		body, err := io.ReadAll(res.Body)
		if err == nil && !strings.Contains(string(body), `"slow": "ok"`) {
			err = errors.New("truncated healthz body: " + string(body))
		}
		got <- err
	}()
	<-entered // the request is in flight
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(2 * time.Second) }()
	// Shutdown must wait for the in-flight request, not abort it.
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned before the in-flight request: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-got; err != nil {
		t.Fatalf("in-flight request aborted by Shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// New connections are refused after the drain.
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("server still accepting after Shutdown")
	}
}

func TestServerShutdownTimeoutAborts(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewServer(reg)
	entered := make(chan struct{})
	var once sync.Once
	s.Ready("wedged", func() error {
		once.Do(func() { close(entered) })
		select {} // never returns: a wedged subscriber
	})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go http.Get("http://" + addr + "/healthz") //nolint:errcheck // aborted by design
	<-entered
	if err := s.Shutdown(50 * time.Millisecond); err != nil {
		t.Fatalf("Shutdown after timeout: %v", err)
	}
}

func TestServerHandleMountsApplicationRoutes(t *testing.T) {
	s := NewServer(telemetry.NewRegistry())
	s.Handle("/ingest", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
	}))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/ingest", nil))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("mounted handler not served: %d", rec.Code)
	}
	if err := s.Shutdown(0); err != nil { // nil srv: no-op
		t.Fatal(err)
	}
}

// TestDaemonOperationalEndpoints drives the daemon's own handler, not a bare
// Server: the operational endpoints share the port with /ingest, /healthz
// carries exactly the "lifecycle" and "shards" checks with their texts, and
// /metrics, /debug/vars and /debug/pprof/ answer as a scraper expects.
func TestDaemonOperationalEndpoints(t *testing.T) {
	reg := telemetry.NewRegistry()
	d, err := New(testEngine(t), Options{
		Stream: rtec.StreamOptions{
			RunOptions:     rtec.RunOptions{Window: 100, Start: 0, End: 991},
			CheckpointPath: filepath.Join(t.TempDir(), "run.ckpt"),
		},
		Telemetry: telemetry.New(reg, nil, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	serveGet := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		d.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}
	const starting = `{
  "status": "degraded",
  "checks": {
    "lifecycle": "daemon is starting",
    "shards": "ok"
  }
}
`
	const ready = `{
  "status": "ok",
  "checks": {
    "lifecycle": "ok",
    "shards": "ok"
  }
}
`
	if rec := serveGet("/healthz"); rec.Code != http.StatusServiceUnavailable || rec.Body.String() != starting {
		t.Fatalf("/healthz while starting = %d:\n%s", rec.Code, rec.Body)
	}
	d.Ready()
	if rec := serveGet("/healthz"); rec.Code != http.StatusOK || rec.Body.String() != ready {
		t.Fatalf("/healthz when ready = %d:\n%s", rec.Code, rec.Body)
	}

	rec := serveGet("/metrics")
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != telemetry.PromContentType {
		t.Fatalf("/metrics = %d, Content-Type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	metrics, err := telemetry.ParsePrometheus(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	if m := metrics["serve_state"]; m == nil || m.Value != float64(stateReady) {
		t.Fatalf("serve_state = %+v, want %d", m, stateReady)
	}

	for path, want := range map[string]string{
		"/debug/vars":   `"memstats":`,
		"/debug/pprof/": "goroutine",
	} {
		if rec := serveGet(path); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), want) {
			t.Errorf("%s = %d, body without %q", path, rec.Code, want)
		}
	}
	if _, err := d.Drain(); err != nil {
		t.Fatal(err)
	}
}
