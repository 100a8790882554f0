package rtec

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"rtecgen/internal/intervals"
	"rtecgen/internal/maritime"
	"rtecgen/internal/parser"
	"rtecgen/internal/stream"
)

// TestConcurrentRuns verifies the documented guarantee that an Engine is
// immutable after New and safe for concurrent Run calls (run the package
// with -race to exercise the detector).
func TestConcurrentRuns(t *testing.T) {
	ed, err := parser.ParseEventDescription(withinAreaED)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(ed, Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	events := stream.Stream{
		ev(10, "entersArea(v1, a1)"),
		ev(40, "leavesArea(v1, a1)"),
		ev(60, "entersArea(v1, a2)"),
		ev(90, "gap_start(v1)"),
		ev(120, "entersArea(v2, a1)"),
		ev(150, "leavesArea(v2, a1)"),
	}

	var wg sync.WaitGroup
	results := make([]string, 8)
	errs := make([]error, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec, err := e.Run(events, RunOptions{Window: 30})
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = rec.IntervalsOfKey("withinArea(v1, fishing)=true").String()
		}(i)
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("concurrent runs diverged: %q vs %q", results[0], results[i])
		}
	}
}

// maritimeEngines builds the gold maritime event description over a shared
// scenario and returns one strict engine per requested option set, plus the
// preprocessed stream.
func maritimeEngines(t testing.TB, vessels int, opts ...Options) ([]*Engine, stream.Stream) {
	t.Helper()
	scen, err := maritime.BuildScenario(maritime.ScenarioConfig{Vessels: vessels, Seed: 7, IntervalSec: 60})
	if err != nil {
		t.Fatal(err)
	}
	events := maritime.Preprocess(scen.Messages, scen.Map, maritime.DefaultPreprocessConfig())
	ed := maritime.FullED(maritime.GoldED(), scen.Map, scen.Fleet, maritime.ObservedPairs(events))
	facts := maritime.DynamicFacts(events, scen.Fleet)
	engines := make([]*Engine, 0, len(opts))
	for _, o := range opts {
		o.Strict, o.ExtraFacts = true, facts
		e, err := New(ed, o)
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, e)
	}
	return engines, events
}

// recognitionFingerprint renders everything externally visible about a run:
// the CSV rows and the ordered warning list.
func recognitionFingerprint(t *testing.T, rec *Recognition) string {
	t.Helper()
	var sb strings.Builder
	sb.WriteString(csvOf(t, rec))
	for _, w := range rec.Warnings {
		fmt.Fprintf(&sb, "warn %s: %s\n", w.Fluent, w.Msg)
	}
	return sb.String()
}

// TestWorkersRecognitionByteIdenticalMaritime is the tentpole determinism
// guarantee on the realistic workload: windowed recognition over the gold
// maritime event description with Workers=8 is byte-identical — CSV rows
// and warning order included — to the sequential Workers=1 path.
func TestWorkersRecognitionByteIdenticalMaritime(t *testing.T) {
	engines, events := maritimeEngines(t, 8, Options{Workers: 1}, Options{Workers: 8})
	if got := engines[1].Workers(); got != 8 {
		t.Fatalf("Workers() = %d, want 8", got)
	}
	outs := make([]string, len(engines))
	for i, e := range engines {
		rec, err := e.Run(events, RunOptions{Window: 3600})
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = recognitionFingerprint(t, rec)
	}
	if strings.Count(outs[0], "\n") < 10 {
		t.Fatalf("maritime run recognised suspiciously little:\n%s", outs[0])
	}
	if outs[0] != outs[1] {
		t.Fatalf("Workers=8 output differs from Workers=1:\n--- workers=1\n%s\n--- workers=8\n%s", outs[0], outs[1])
	}
}

// TestWorkersByteIdenticalRandomStreams sweeps random streams and window
// sizes over the multi-stratum hierarchy: the parallel path must agree with
// the sequential one on every seed, including the rules that never fire.
func TestWorkersByteIdenticalRandomStreams(t *testing.T) {
	for _, src := range []struct{ name, ed string }{
		{"withinArea", withinAreaED},
		{"hierarchy", hierarchyED},
	} {
		t.Run(src.name, func(t *testing.T) {
			seq := mustEngine(t, src.ed, Options{Strict: true, Workers: 1})
			par := mustEngine(t, src.ed, Options{Strict: true, Workers: 8})
			for seed := int64(0); seed < 25; seed++ {
				r := rand.New(rand.NewSource(seed))
				var events stream.Stream
				if src.name == "withinArea" {
					events = genRandomStream(r, 600)
				} else {
					for i := 0; i < 30+r.Intn(40); i++ {
						x := []string{"x", "y", "z", "w", "u"}[r.Intn(5)]
						ev := []string{"a_start", "a_end", "b_start", "b_end"}[r.Intn(4)]
						events = append(events, stream.Event{
							Time: int64(r.Intn(400)), Atom: parser.MustParseTerm(fmt.Sprintf("%s(%s)", ev, x)),
						})
					}
				}
				window := int64(20 + r.Intn(200))
				a, err := seq.Run(events, RunOptions{Window: window})
				if err != nil {
					t.Fatal(err)
				}
				b, err := par.Run(events, RunOptions{Window: window})
				if err != nil {
					t.Fatal(err)
				}
				if fa, fb := recognitionFingerprint(t, a), recognitionFingerprint(t, b); fa != fb {
					t.Fatalf("seed %d window %d: parallel output differs:\n--- workers=1\n%s\n--- workers=8\n%s",
						seed, window, fa, fb)
				}
			}
		})
	}
}

// TestWorkersCheckpointBytesIdentical: the crash-safe snapshot a parallel
// run writes is byte-for-byte the file a sequential run writes — resuming
// from either is indistinguishable.
func TestWorkersCheckpointBytesIdentical(t *testing.T) {
	arrivals := chaosArrivals(t, 13, 60)
	files := make([][]byte, 2)
	for i, w := range []int{1, 8} {
		e := mustEngine(t, withinAreaED, Options{Strict: true, Workers: w})
		opts := StreamOptions{
			RunOptions:      RunOptions{Window: 100},
			MaxDelay:        60,
			CheckpointPath:  filepath.Join(t.TempDir(), "run.ckpt"),
			CheckpointEvery: 1,
		}
		if _, err := e.RunStream(arrivals, opts, nil); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(opts.CheckpointPath)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = data
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatalf("checkpoint bytes differ between Workers=1 and Workers=8:\n%s\nvs\n%s", files[0], files[1])
	}
}

// streamDeliveryLog renders every window delivery of a streaming run — the
// revision counters, the recognised intervals, the retraction diffs — plus
// the final disorder statistics and recognition CSV.
func streamDeliveryLog(t *testing.T, e *Engine, arrivals stream.Stream, opts StreamOptions) string {
	t.Helper()
	var sb strings.Builder
	renderLists := func(prefix string, m map[string]intervals.List) {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&sb, "  %s%s %s\n", prefix, k, m[k])
		}
	}
	res, err := e.RunStream(arrivals, opts, func(wr WindowResult) error {
		fmt.Fprintf(&sb, "window [%d,%d) rev=%d\n", wr.WindowStart, wr.QueryTime, wr.Revision)
		renderLists("", wr.Recognised)
		renderLists("retract ", wr.Retracted)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&sb, "stats %s\n", res.Stats)
	sb.WriteString(csvOf(t, res.Recognition))
	return sb.String()
}

// TestWorkersStreamRevisionsIdenticalMaritime: under a seeded disorder
// shuffle (the same bounded-delay perturbation cmd/disorder applies) of the
// maritime stream, every window delivery — revision numbers, recognised
// intervals, and retraction diffs — is byte-identical between Workers=1 and
// Workers=8.
func TestWorkersStreamRevisionsIdenticalMaritime(t *testing.T) {
	engines, events := maritimeEngines(t, 2, Options{Workers: 1}, Options{Workers: 8})
	// A prefix of the voyage keeps the test fast while still spanning several
	// windows' worth of revisable deliveries.
	cut := 0
	for cut < len(events) && events[cut].Time < 9000 {
		cut++
	}
	events = events[:cut]
	arrivals := boundedShuffle(rand.New(rand.NewSource(99)), events, 120)
	opts := StreamOptions{RunOptions: RunOptions{Window: 3600}, MaxDelay: 120}
	logs := make([]string, len(engines))
	for i, e := range engines {
		logs[i] = streamDeliveryLog(t, e, arrivals, opts)
	}
	if !strings.Contains(logs[0], "rev=1") {
		t.Fatal("shuffle produced no revisions; the test is not exercising re-deliveries")
	}
	if logs[0] != logs[1] {
		t.Fatalf("stream deliveries differ between Workers=1 and Workers=8:\n--- workers=1\n%s\n--- workers=8\n%s",
			logs[0], logs[1])
	}
}
