package maritime

import (
	"runtime"
	"testing"

	"rtecgen/internal/parser"
)

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes one
// call of f allocates (MemStats.TotalAlloc), over runs calls after one
// warm-up call, on one P. Bytes, like counts, repeat across hosts.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// preprocessBytesCeiling bounds the bytes maritime.Preprocess allocates per
// event it derives from the 14-vessel seed-7 scenario (60 s reports, 4 380
// events). Measured 883 B per event (3 868 472 in all) with 64-byte terms; a
// velocity event is five of them, and at 96 bytes a term the same run read
// 1 035.
const preprocessBytesCeiling = 900

func TestPreprocessBytesCeiling(t *testing.T) {
	scen, err := BuildScenario(ScenarioConfig{Vessels: 14, Seed: 7, IntervalSec: 60})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultPreprocessConfig()
	var events int
	bytes := bytesPerRun(3, func() { events = len(Preprocess(scen.Messages, scen.Map, cfg)) })
	perEvent := bytes / float64(events)
	t.Logf("%d events, %.0f B per run, %.0f B per event, ceiling %d", events, bytes, perEvent, preprocessBytesCeiling)
	if perEvent > preprocessBytesCeiling {
		t.Fatalf("Preprocess allocates %.0f B per event, ceiling %d", perEvent, preprocessBytesCeiling)
	}
}

// goldParseBytesCeiling bounds one parse of the gold event description.
// Measured 105 912 B with 64-byte terms; 144 792 at 96 bytes a term.
const goldParseBytesCeiling = 110000

func TestGoldParseBytesCeiling(t *testing.T) {
	src := GoldSource()
	bytes := bytesPerRun(5, func() {
		if _, err := parser.ParseEventDescription(src); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f B per parse, ceiling %d", bytes, goldParseBytesCeiling)
	if bytes > goldParseBytesCeiling {
		t.Fatalf("one parse of the gold ED allocates %.0f B, ceiling %d", bytes, goldParseBytesCeiling)
	}
}
