package telemetry

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestServerHealthz(t *testing.T) {
	reg := NewRegistry()
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
	ts := httptest.NewServer(NewServer(NewRegistry()).Handler())
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

// TestServerStartClose exercises the real listener path rtecd uses: bind
// port 0, scrape over TCP, then shut down.
func TestServerStartClose(t *testing.T) {
	reg := NewRegistry()
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
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestServerNilSafety(t *testing.T) {
	var s *Server
	s.Ready("x", func() error { return nil })
	if addr, err := s.Start("127.0.0.1:0"); addr != "" || err != nil {
		t.Fatalf("nil Start = %q, %v", addr, err)
	}
	if s.Addr() != "" {
		t.Fatal("nil Addr not empty")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Handler() == nil {
		t.Fatal("nil Handler returned nil")
	}
}

// TestServerShutdownDrainsInFlight starts a scrape whose readiness check
// blocks mid-request, calls Shutdown concurrently, and asserts the scrape
// still completes with a full response — where Close would reset it.
func TestServerShutdownDrainsInFlight(t *testing.T) {
	reg := NewRegistry()
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
	reg := NewRegistry()
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
	s := NewServer(NewRegistry())
	s.Handle("/ingest", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
	}))
	var nilServer *Server
	nilServer.Handle("/x", http.NotFoundHandler()) // no-op, must not panic
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/ingest", nil))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("mounted handler not served: %d", rec.Code)
	}
	if err := s.Shutdown(0); err != nil { // nil srv: no-op
		t.Fatal(err)
	}
}
