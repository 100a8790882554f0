// Package telemetry is the observability substrate of the repository: a
// concurrency-safe metrics registry (counters, gauges, fixed-bucket
// histograms), span-based tracing that exports Chrome trace_event JSON
// (loadable in chrome://tracing or Perfetto), and a log/slog-based
// structured logger with a shared handler configuration.
//
// Everything is stdlib-only and nil-tolerant: a nil *Telemetry (and every
// nil component reached through it) turns every call into a no-op costing a
// few nil checks, so instrumented hot paths — the RTEC windowed engine, the
// prompt→generate→analyze→correct→score pipeline — pay ~nothing when
// observability is disabled.
package telemetry

import "log/slog"

// Telemetry bundles the three observability channels threaded through the
// engine and the generation pipeline. Any field may be nil; the accessors
// below (and all component methods) degrade to no-ops.
type Telemetry struct {
	Registry *Registry
	Tracer   *Tracer
	Log      *slog.Logger
}

// New bundles a registry, a tracer and a logger. Any argument may be nil.
func New(reg *Registry, tr *Tracer, log *slog.Logger) *Telemetry {
	return &Telemetry{Registry: reg, Tracer: tr, Log: log}
}

// Counter returns the named counter, or nil when metrics are disabled.
// A nil *Counter accepts Add/Inc as no-ops.
func (t *Telemetry) Counter(name string) *Counter {
	if t == nil {
		return nil
	}
	return t.Registry.Counter(name)
}

// Gauge returns the named gauge, or nil when metrics are disabled.
func (t *Telemetry) Gauge(name string) *Gauge {
	if t == nil {
		return nil
	}
	return t.Registry.Gauge(name)
}

// Histogram returns the named histogram with the default duration buckets,
// or nil when metrics are disabled.
func (t *Telemetry) Histogram(name string) *Histogram {
	if t == nil {
		return nil
	}
	return t.Registry.Histogram(name, nil)
}

// Span starts a root span on the tracer, or returns nil when tracing is
// disabled. A nil *Span accepts Span/SetAttrs/End as no-ops, so a whole
// instrumented call tree collapses to nil checks.
func (t *Telemetry) Span(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	return t.Tracer.Span(name, attrs...)
}

// Logger never returns nil: when no logger is configured it returns the
// shared discard logger, whose handler reports every level as disabled.
func (t *Telemetry) Logger() *slog.Logger {
	if t == nil || t.Log == nil {
		return Discard()
	}
	return t.Log
}
