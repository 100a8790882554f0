package serve

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"time"

	"rtecgen/internal/telemetry"
)

// Server is the daemon's operational endpoint: it serves the metrics
// registry in Prometheus text exposition format at /metrics, per-subsystem
// readiness at /healthz, the expvar JSON at /debug/vars and the
// net/http/pprof profiles under /debug/pprof/. The Daemon mounts its ingest
// and subscription API on it, so one port carries both. It lives here and
// not in internal/telemetry, which every batch command imports, so that
// only rtecd links net/http, expvar and the profiler (vet-rtec's linkdeps
// rule holds the other commands to that).
//
// The zero value is not usable; construct with NewServer. All methods are
// safe for concurrent use.
type Server struct {
	reg *telemetry.Registry
	mux *http.ServeMux

	mu     sync.Mutex
	checks map[string]func() error
	srv    *http.Server
	ln     net.Listener
}

// NewServer builds a server over a metrics registry (which may be shared
// with the instrumented engine — the scrape always sees live values).
func NewServer(reg *telemetry.Registry) *Server {
	s := &Server{reg: reg, mux: http.NewServeMux(), checks: map[string]func() error{}}
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.Handle("/debug/vars", expvar.Handler())
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Ready registers a named readiness check. /healthz reports every check by
// name; any check returning an error turns the response into 503 with the
// failing reasons. Re-registering a name replaces the check.
func (s *Server) Ready(name string, check func() error) {
	s.mu.Lock()
	s.checks[name] = check
	s.mu.Unlock()
}

// Handle mounts an application handler on the server's mux alongside the
// operational endpoints — rtecd serves its ingest and subscription API
// through this, so one port carries both. Mount before Start; the mux
// panics on duplicate patterns, same as http.Handle.
func (s *Server) Handle(pattern string, h http.Handler) {
	s.mux.Handle(pattern, h)
}

// Handler returns the server's mux, for embedding under an existing
// http.Server (tests use this with httptest).
func (s *Server) Handler() http.Handler {
	return s.mux
}

// Start binds addr (port 0 picks a free port) and serves in a background
// goroutine, returning the bound address for scrapers. Call Shutdown to stop.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("serve: server: %w", err)
	}
	srv := &http.Server{Handler: s.mux}
	s.mu.Lock()
	s.srv, s.ln = srv, ln
	s.mu.Unlock()
	go srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Shutdown
	return ln.Addr().String(), nil
}

// Addr returns the bound address after Start, or "".
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown stops accepting connections and drains in-flight requests,
// waiting at most timeout (zero defaults to 5s) before aborting whatever
// is left. A scraper that hit /metrics just as the run ended gets its
// response instead of a reset connection.
func (s *Server) Shutdown(timeout time.Duration) error {
	s.mu.Lock()
	srv := s.srv
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		// The drain deadline passed with requests still in flight (a stuck
		// SSE subscriber, a wedged scraper): abort them, the bound is the
		// contract.
		return srv.Close()
	}
	return nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", telemetry.PromContentType)
	if err := s.reg.WritePrometheus(w); err != nil {
		// Headers are gone; all we can do is drop the connection.
		return
	}
}

// healthReport is the /healthz response body: overall status plus the
// verdict of every registered check, with deterministic key order under
// encoding/json's map-key sorting.
type healthReport struct {
	Status string            `json:"status"` // "ok" or "degraded"
	Checks map[string]string `json:"checks"` // name -> "ok" or the error text
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	names := make([]string, 0, len(s.checks))
	for name := range s.checks {
		names = append(names, name)
	}
	checks := make(map[string]func() error, len(s.checks))
	for name, fn := range s.checks {
		checks[name] = fn
	}
	s.mu.Unlock()
	sort.Strings(names)

	rep := healthReport{Status: "ok", Checks: map[string]string{}}
	for _, name := range names {
		if err := checks[name](); err != nil {
			rep.Status = "degraded"
			rep.Checks[name] = err.Error()
		} else {
			rep.Checks[name] = "ok"
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if rep.Status != "ok" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(rep) //nolint:errcheck // best effort towards a closing client
}
