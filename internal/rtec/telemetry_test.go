package rtec

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rtecgen/internal/intervals"
	"rtecgen/internal/parser"
	"rtecgen/internal/stream"
	"rtecgen/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files")

// stepClock is a deterministic clock: every reading advances by step, so a
// trace recorded through it is byte-stable across runs.
func stepClock(step time.Duration) func() time.Time {
	t := time.Unix(0, 0).UTC()
	return func() time.Time {
		now := t
		t = t.Add(step)
		return now
	}
}

// TestGoldenChromeTrace runs the engine over two windows with a fake clock
// and compares the exported Chrome trace byte-for-byte against the golden
// file. Engine evaluation is single-goroutine, so span creation order — and
// with a deterministic clock, every timestamp — is reproducible.
func TestGoldenChromeTrace(t *testing.T) {
	tr := telemetry.NewTracerWithClock(stepClock(time.Millisecond))
	tel := telemetry.New(telemetry.NewRegistry(), tr, nil)
	e := mustEngine(t, withinAreaED, Options{Strict: true, Telemetry: tel})
	events := stream.Stream{ev(10, "entersArea(v1, a1)"), ev(50, "leavesArea(v1, a1)")}
	rec, err := e.Run(events, RunOptions{Window: 30, Slide: 30})
	if err != nil {
		t.Fatal(err)
	}
	checkIntervals(t, rec, "withinArea(v1, fishing)=true", intervals.List{ivl(11, 51)})

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace_two_windows.golden.json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace differs from golden file %s (run with -update to regenerate)\ngot:\n%s", golden, buf.String())
	}
}

// TestEngineCounters checks the engine's metric semantics on a two-window
// run: events ingested once, a window counted per query time.
func TestEngineCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	tel := telemetry.New(reg, nil, nil)
	e := mustEngine(t, withinAreaED, Options{Strict: true, Telemetry: tel})
	events := stream.Stream{ev(10, "entersArea(v1, a1)"), ev(50, "leavesArea(v1, a1)")}
	if _, err := e.Run(events, RunOptions{Window: 30, Slide: 30}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"rtec.events.ingested":   2,
		"rtec.windows.evaluated": 2,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestRuntimeWarningsOnLogger checks that runtime warnings surface on the
// telemetry logger with fluent and window attributes.
func TestRuntimeWarningsOnLogger(t *testing.T) {
	var logBuf bytes.Buffer
	reg := telemetry.NewRegistry()
	tel := telemetry.New(reg, nil, telemetry.NewTestLogger(&logBuf, nil))
	src := withinAreaED + `
initiatedAt(odd(Vl)=true, T) :-
    happensAt(entersArea(Vl, AreaID), T),
    noSuchPredicate(AreaID, _).
`
	e := mustEngine(t, src, Options{Telemetry: tel})
	events := stream.Stream{ev(10, "entersArea(v1, a1)")}
	rec, err := e.Run(events, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Warnings) == 0 {
		t.Fatal("expected runtime warnings")
	}
	out := logBuf.String()
	for _, want := range []string{
		"level=WARN", "component=rtec", "stage=recognition",
		"fluent=odd/1", "window_start=10", "query_time=11",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("log output missing %q:\n%s", want, out)
		}
	}
}

// benchStream builds a deterministic multi-vessel stream long enough for a
// windowed benchmark run.
func benchStream(vessels int, until int64) stream.Stream {
	var s stream.Stream
	areas := []string{"a1", "a2"}
	for v := 0; v < vessels; v++ {
		name := string(rune('a'+v%26)) + "v"
		for t := int64(v); t < until; t += 40 {
			area := areas[(int(t)/40+v)%len(areas)]
			s = append(s, ev(t, "entersArea("+name+", "+area+")"))
			s = append(s, ev(t+20, "leavesArea("+name+", "+area+")"))
		}
	}
	return s
}

// BenchmarkRecognitionRun measures the windowed engine with telemetry
// disabled (nil — the no-op path every un-instrumented caller gets) and
// fully enabled (registry + tracer + discard logger). The delta of the "off"
// case against pre-instrumentation code is a handful of nil checks per
// window; EXPERIMENTS.md records the measured numbers.
func BenchmarkRecognitionRun(b *testing.B) {
	events := benchStream(8, 4000)
	bench := func(b *testing.B, tel *telemetry.Telemetry) {
		ed, err := parser.ParseEventDescription(withinAreaED)
		if err != nil {
			b.Fatal(err)
		}
		e, err := New(ed, Options{Strict: true, Telemetry: tel})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Run(events, RunOptions{Window: 200, Slide: 100}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("telemetry=off", func(b *testing.B) { bench(b, nil) })
	b.Run("telemetry=on", func(b *testing.B) {
		bench(b, telemetry.New(telemetry.NewRegistry(), telemetry.NewTracer(), telemetry.Discard()))
	})
}
