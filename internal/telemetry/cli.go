package telemetry

import (
	"fmt"
	"io"
	"log/slog"
	"os"
)

// CLIConfig carries the observability flags shared by the CLIs
// (-trace, -metrics, -v). Zero value = everything off except the
// warning-level logger.
type CLIConfig struct {
	// TracePath, when non-empty, enables the tracer and names the Chrome
	// trace_event JSON file written at exit (open in chrome://tracing or
	// https://ui.perfetto.dev).
	TracePath string
	// Metrics enables the registry dump at exit.
	Metrics bool
	// Verbose lowers the logger level from Warn to Debug.
	Verbose bool
}

// Setup builds the Telemetry a CLI threads through the engine and the
// pipeline, and returns a flush function for the exit path: it writes the
// trace file and dumps the registry to metricsW (stderr by convention, so
// stdout stays machine-readable). The registry always exists — counters are
// near-free and the dump is opt-in; the tracer only when TracePath is set.
func (c CLIConfig) Setup(logW, metricsW io.Writer) (*Telemetry, func() error) {
	level := slog.LevelWarn
	if c.Verbose {
		level = slog.LevelDebug
	}
	reg := NewRegistry()
	var tr *Tracer
	if c.TracePath != "" {
		tr = NewTracer()
	}
	// Instrumentation sites attach their own "component" attribute (rtec,
	// pipeline, ...), so the logger carries none.
	tel := New(reg, tr, NewLogger(logW, level, ""))
	flush := func() error {
		if c.TracePath != "" {
			f, err := os.Create(c.TracePath)
			if err != nil {
				return fmt.Errorf("telemetry: trace output: %w", err)
			}
			if err := tr.WriteChromeTrace(f); err != nil {
				f.Close()
				return fmt.Errorf("telemetry: trace output: %w", err)
			}
			if err := f.Close(); err != nil {
				return fmt.Errorf("telemetry: trace output: %w", err)
			}
		}
		if c.Metrics {
			if err := reg.WriteText(metricsW); err != nil {
				return fmt.Errorf("telemetry: metrics dump: %w", err)
			}
		}
		return nil
	}
	return tel, flush
}
