package rtec

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"rtecgen/internal/lang"
	"rtecgen/internal/llm"
	"rtecgen/internal/maritime"
	"rtecgen/internal/parser"
	"rtecgen/internal/stream"
	"rtecgen/internal/telemetry"
	"rtecgen/internal/telemetry/journal"
)

// deltaOracle builds a pair of engines over the same event description: one
// with delta evaluation on (the default) and one with the full re-evaluation
// oracle, differing in nothing else.
func deltaOracle(t *testing.T, src string) (*Engine, *Engine) {
	t.Helper()
	delta := mustEngine(t, src, Options{Strict: true})
	full := mustEngine(t, src, Options{Strict: true, DisableDelta: true})
	return delta, full
}

// TestDeltaEligibilityAnalysis pins the static analysis: the test EDs'
// time-local simple fluents replay, a rule conditioned at a fixed time-point
// (not the anchor variable) disqualifies its fluent, and SD fluents never
// carry acts.
func TestDeltaEligibilityAnalysis(t *testing.T) {
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	for ind, def := range e.fluents {
		if !def.deltaEligible {
			t.Fatalf("%s not delta-eligible: every withinAreaED rule is time-local", ind)
		}
	}

	h := mustEngine(t, hierarchyED, Options{Strict: true})
	for ind, def := range h.fluents {
		want := def.kind == Simple
		if def.deltaEligible != want {
			t.Fatalf("%s eligibility = %v, want %v (kind %v)", ind, def.deltaEligible, want, def.kind)
		}
	}

	nonLocal := `
inputEvent(a_start(_)).
inputEvent(a_end(_)).

initiatedAt(g(X)=true, T) :- happensAt(a_start(X), T).
terminatedAt(g(X)=true, T) :- happensAt(a_end(X), T).

initiatedAt(f(X)=true, T) :-
    happensAt(a_start(X), T),
    holdsAt(g(X)=true, 5).
terminatedAt(f(X)=true, T) :- happensAt(a_end(X), T).
`
	n := mustEngine(t, nonLocal, Options{Strict: true})
	if !n.fluents["g/1"].deltaEligible {
		t.Fatal("g/1 should be eligible")
	}
	if n.fluents["f/1"].deltaEligible {
		t.Fatal("f/1 conditioned at a fixed time-point must not be eligible")
	}
}

// TestDeltaBatchEquivalence: for random streams and window geometries,
// delta evaluation is byte-identical — CSV rows and warning
// order included — to full re-evaluation.
func TestDeltaBatchEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
		gen  func(*rand.Rand, int64) stream.Stream
	}{
		{"withinArea", withinAreaED, genRandomStream},
		{"hierarchy", hierarchyED, genHierarchyStream},
		{"crossShard", crossShardED, genCrossShardStream},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := func(seed int64) bool {
				delta, full := deltaOracle(t, tc.src)
				r := rand.New(rand.NewSource(seed))
				events := tc.gen(r, 500)
				window := int64(20 + r.Intn(300))
				slide := int64(1 + r.Intn(int(window)))
				opts := RunOptions{Window: window, Slide: slide}
				a, err1 := delta.Run(events, opts)
				b, err2 := full.Run(events, opts)
				if err1 != nil || err2 != nil {
					t.Logf("seed %d: errors %v / %v", seed, err1, err2)
					return false
				}
				fa, fb := recognitionFingerprint(t, a), recognitionFingerprint(t, b)
				if fa != fb {
					t.Logf("seed %d window %d slide %d:\n--- delta\n%s\n--- full\n%s",
						seed, window, slide, fa, fb)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// genHierarchyStream derives a random stream over hierarchyED's inputs.
func genHierarchyStream(r *rand.Rand, horizon int64) stream.Stream {
	var events stream.Stream
	for i := 0; i < 5+r.Intn(40); i++ {
		t := int64(r.Intn(int(horizon)))
		x := []string{"x", "y", "z"}[r.Intn(3)]
		ev := []string{"a_start", "a_end", "b_start", "b_end"}[r.Intn(4)]
		events = append(events, stream.Event{
			Time: t, Atom: parser.MustParseTerm(ev + "(" + x + ")"),
		})
	}
	return events
}

// TestDeltaMaritimeByteIdentical drives the realistic workload: sliding
// windows over the gold maritime event description, delta vs full, at
// several overlap ratios.
func TestDeltaMaritimeByteIdentical(t *testing.T) {
	scen, err := maritime.BuildScenario(maritime.ScenarioConfig{Vessels: 6, Seed: 7, IntervalSec: 60})
	if err != nil {
		t.Fatal(err)
	}
	events := maritime.Preprocess(scen.Messages, scen.Map, maritime.DefaultPreprocessConfig())
	ed := maritime.FullED(maritime.GoldED(), scen.Map, scen.Fleet, maritime.ObservedPairs(events))
	facts := maritime.DynamicFacts(events, scen.Fleet)
	delta, err := New(ed, Options{Strict: true, ExtraFacts: facts})
	if err != nil {
		t.Fatal(err)
	}
	full, err := New(ed, Options{Strict: true, ExtraFacts: facts, DisableDelta: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, slideDiv := range []int64{2, 4} {
		opts := RunOptions{Window: 3600, Slide: 3600 / slideDiv}
		a, err1 := delta.Run(events, opts)
		b, err2 := full.Run(events, opts)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if fa, fb := recognitionFingerprint(t, a), recognitionFingerprint(t, b); fa != fb {
			t.Fatalf("slide=%d: delta output differs from full", opts.Slide)
		}
	}
}

// TestDeltaReuseCounters: a slide-heavy run must actually replay — the
// rtec.delta.reused counter is nonzero, the reuse ratio gauge is set, and
// the oracle mode records nothing.
func TestDeltaReuseCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := mustEngine(t, withinAreaED, Options{Strict: true, Telemetry: telemetry.New(reg, nil, nil)})
	r := rand.New(rand.NewSource(3))
	events := genRandomStream(r, 800)
	if _, err := e.Run(events, RunOptions{Window: 200, Slide: 50}); err != nil {
		t.Fatal(err)
	}
	if reused := reg.Counter("rtec.delta.reused").Value(); reused == 0 {
		t.Fatal("rtec.delta.reused = 0: the delta layer never replayed")
	}
	if dirty := reg.Counter("rtec.delta.dirty").Value(); dirty == 0 {
		t.Fatal("rtec.delta.dirty = 0: the slide-admitted tail was never recomputed")
	}
	if ratio := reg.Gauge("rtec.delta.reuse_ratio").Value(); ratio <= 0 || ratio > 100 {
		t.Fatalf("rtec.delta.reuse_ratio = %d, want within (0, 100]", ratio)
	}

	oreg := telemetry.NewRegistry()
	oracle := mustEngine(t, withinAreaED, Options{Strict: true, DisableDelta: true, Telemetry: telemetry.New(oreg, nil, nil)})
	if _, err := oracle.Run(events, RunOptions{Window: 200, Slide: 50}); err != nil {
		t.Fatal(err)
	}
	if v := oreg.Counter("rtec.delta.reused").Value() + oreg.Counter("rtec.delta.dirty").Value(); v != 0 {
		t.Fatalf("oracle mode recorded %d delta units, want 0", v)
	}
}

// deltaGeometries are the window geometries of TestDeltaBatchGeometries,
// each over [0, 1000) of geometryEvents.
var deltaGeometries = []struct {
	name          string
	window, slide int64
	overlap       bool
	wantErr       bool
}{
	{name: "tumbling, aligned end", window: 250},                                  // [0,250) … [750,1000)
	{name: "tumbling, short overlapping last window", window: 300, overlap: true}, // … [600,900), [700,1000)
	{name: "slide < window", window: 300, slide: 100, overlap: true},
	{name: "slide > window", window: 100, slide: 150, wantErr: true}, // would skip events: refused before any window
}

// geometryEvents is the random withinAreaED stream the geometries run over.
func geometryEvents() stream.Stream {
	r := rand.New(rand.NewSource(5))
	var events stream.Stream
	for i := 0; i < 8; i++ {
		events = append(events, genRandomStream(r, 1000)...)
	}
	return events
}

// TestDeltaBatchGeometries: a batch window pays for the delta layer only
// when it overlaps a neighbour. Across window geometries the output is
// byte-identical to the full re-evaluation oracle; a run none of whose
// windows overlap counts no delta unit at all (nothing attached, nothing
// captured), and a run with any overlap — even just a short last window
// reaching back into its predecessor, the shape of the paper pipeline's
// runs — replays there.
func TestDeltaBatchGeometries(t *testing.T) {
	events := geometryEvents()
	for _, tc := range deltaGeometries {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			delta := mustEngine(t, withinAreaED, Options{Strict: true, Telemetry: telemetry.New(reg, nil, nil)})
			full := mustEngine(t, withinAreaED, Options{Strict: true, DisableDelta: true})
			opts := RunOptions{Window: tc.window, Slide: tc.slide, Start: 0, End: 1000}
			a, errA := delta.Run(events, opts)
			b, errB := full.Run(events, opts)
			reused, dirty := reg.Counter("rtec.delta.reused").Value(), reg.Counter("rtec.delta.dirty").Value()
			if tc.wantErr {
				if errA == nil || errB == nil || errA.Error() != errB.Error() {
					t.Fatalf("errors %v / %v, want the same refusal from both", errA, errB)
				}
			} else {
				if errA != nil || errB != nil {
					t.Fatal(errA, errB)
				}
				if fa, fb := recognitionFingerprint(t, a), recognitionFingerprint(t, b); fa != fb {
					t.Fatalf("delta output differs from full:\n--- delta\n%s\n--- full\n%s", fa, fb)
				}
				if len(a.Keys()) == 0 {
					t.Fatal("nothing recognised: the comparison is vacuous")
				}
			}
			if tc.overlap && reused == 0 {
				t.Fatalf("rtec.delta.reused = 0 (dirty %d): overlapping windows replayed nothing", dirty)
			}
			if !tc.overlap && reused+dirty != 0 {
				t.Fatalf("rtec.delta.reused = %d, rtec.delta.dirty = %d: a window with no overlapping neighbour attached the delta layer", reused, dirty)
			}
		})
	}
}

// TestDeltaResumeRewarms: a run suspended mid-stream resumes with every slot
// cold — the carried delta state is not persisted — so its first evaluation
// is a full one with capture; from there the resumed stretch replays again,
// and the final output is byte-identical to the uninterrupted run.
func TestDeltaResumeRewarms(t *testing.T) {
	arrivals := chaosArrivals(t, 11, 60)
	opts := StreamOptions{
		RunOptions:      RunOptions{Window: 120, Slide: 30},
		MaxDelay:        60,
		CheckpointEvery: 1,
	}

	want, err := mustEngine(t, withinAreaED, Options{Strict: true}).RunStream(arrivals, opts, nil)
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	e := mustEngine(t, withinAreaED, Options{Strict: true, Telemetry: telemetry.New(reg, nil, nil)})
	opts.CheckpointPath = filepath.Join(t.TempDir(), "run.ckpt")
	parkAfter(t, e, arrivals, opts, len(arrivals)/2, nil)
	reused0 := reg.Counter("rtec.delta.reused").Value()
	got, err := resumeStream(e, opts.CheckpointPath, arrivals, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Counter("rtec.delta.reused").Value() <= reused0 {
		t.Fatal("resumed stretch never replayed")
	}
	if recognitionFingerprint(t, got.Recognition) != recognitionFingerprint(t, want.Recognition) {
		t.Fatal("resumed run differs from the uninterrupted run")
	}
}

// deliveryTrace runs a streaming run to completion and renders everything a
// consumer can observe of it: every delivery (window, revision, recognised
// intervals, retraction diff), the final statistics and recognition, the
// journal bytes and the checkpoint envelope bytes.
func deliveryTrace(t *testing.T, e *Engine, arrivals stream.Stream, opts StreamOptions) (log string, journalBytes, ckpt []byte) {
	t.Helper()
	var jbuf bytes.Buffer
	opts.Journal = journal.NewWriter(&jbuf, journal.Options{})
	opts.CheckpointPath = filepath.Join(t.TempDir(), "run.ckpt")
	log = streamDeliveryLog(t, e, arrivals, opts)
	ckpt, err := os.ReadFile(opts.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	return log, jbuf.Bytes(), ckpt
}

// TestDeltaRevisionEquivalence: under seeded disorder, revisions and
// checkpointing, the delta path reproduces the from-scratch oracle's whole
// externally visible surface — the delivered sequence
// (window, revision, retractions), the statistics, the recognition CSV, the
// journal bytes and the checkpoint envelope. With slide < max-delay several
// emitted windows contain each late time-point, so every one of them is
// revised as a delta evaluation against its own carried state.
func TestDeltaRevisionEquivalence(t *testing.T) {
	shuffled := func(gen func(*rand.Rand, int64) stream.Stream, seed int64) stream.Stream {
		r := rand.New(rand.NewSource(seed))
		var events stream.Stream
		for len(events) < 150 {
			events = append(events, gen(r, 1000)...)
		}
		events.Sort()
		arrivals, _, _ := stream.Perturb(events, r, 60, 0)
		return arrivals
	}
	for _, tc := range []struct {
		name     string
		src      string
		arrivals stream.Stream
	}{
		{"withinArea", withinAreaED, chaosArrivals(t, 5, 60)},
		{"crossShard", crossShardED, shuffled(genCrossShardStream, 5)},
		{"hierarchy", hierarchyED, shuffled(genHierarchyStream, 9)},
	} {
		opts := StreamOptions{
			RunOptions:      RunOptions{Window: 120, Slide: 20},
			MaxDelay:        60,
			CheckpointEvery: 3,
		}
		delta, full := deltaOracle(t, tc.src)
		dLog, dJ, dC := deliveryTrace(t, delta, tc.arrivals, opts)
		fLog, fJ, fC := deliveryTrace(t, full, tc.arrivals, opts)
		if !strings.Contains(fLog, "rev=1") {
			t.Fatalf("%s: the shuffle produced no revisions; nothing is being tested", tc.name)
		}
		if dLog != fLog {
			t.Fatalf("%s: deliveries differ:\n--- delta\n%s\n--- full\n%s", tc.name, dLog, fLog)
		}
		if !bytes.Equal(dJ, fJ) {
			t.Fatalf("%s: journal bytes differ", tc.name)
		}
		if !bytes.Equal(dC, fC) {
			t.Fatalf("%s: checkpoint envelope bytes differ", tc.name)
		}
	}
}

// TestDeltaRevisionsReuseOnTumbling: tumbling windows share no events, so an
// emission can replay nothing — every replayed anchor event on a tumbling
// run comes from a revision, and a run whose revisions all evaluated from
// scratch reuses nothing.
func TestDeltaRevisionsReuseOnTumbling(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := mustEngine(t, withinAreaED, Options{Strict: true, Telemetry: telemetry.New(reg, nil, nil)})
	res, err := e.RunStream(chaosArrivals(t, 5, 60), StreamOptions{RunOptions: RunOptions{Window: 100}, MaxDelay: 60}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Late == 0 {
		t.Fatal("no late arrivals: nothing is being tested")
	}
	// A tumbling emission re-derives its whole window, so only a revision
	// can reuse an anchor event.
	if reused := reg.Counter("rtec.delta.reused").Value(); reused == 0 {
		t.Fatal("rtec.delta.reused = 0: revisions are not replaying their slot's carried state")
	}
}

// TestDeltaSlotStateBounded: carried state is held only by the slots that
// can still use it — the revisable ones (emitted, query time ahead of the
// watermark) plus the last emitted slot the next emission slides from.
func TestDeltaSlotStateBounded(t *testing.T) {
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	arrivals := chaosArrivals(t, 5, 60)
	first, last := arrivals.TimeRange()
	r, err := e.NewStreamRunner(StreamOptions{
		RunOptions: RunOptions{Window: 120, Slide: 20, Start: first, End: last + 1},
		MaxDelay:   60,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := r.st
	most := 0
	for n, a := range arrivals {
		if err := r.Ingest(a); err != nil {
			t.Fatal(err)
		}
		w, _ := st.reorder.Watermark()
		holding, revisable := 0, 0
		for i := range st.slots {
			if st.slots[i].delta != nil {
				holding++
			}
			if i < st.emitted && st.tl.q(i) > w {
				revisable++
			}
		}
		if holding > revisable+1 {
			t.Fatalf("after arrival %d: %d slots hold carried state, only %d are revisable", n, holding, revisable)
		}
		// Everything a revision installs from — a fluent's stored entries,
		// its warnings, its inertia input, the act maps — hangs off the
		// slot's delta state: a final slot, unless it is the last one
		// emitted (the next emission slides from it), holds none of it.
		for i := 0; i < st.final && i < st.emitted-1; i++ {
			if st.slots[i].delta != nil {
				t.Fatalf("after arrival %d: final slot %d still holds carried state", n, i)
			}
		}
		if holding > most {
			most = holding
		}
	}
	if most < 3 {
		t.Fatalf("at most %d slots ever held state; slide < max-delay should keep several revisable", most)
	}
	if _, err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaResumeInsideLateBurst: a run suspended between two late arrivals
// resumes with every revisable slot cold (full evaluation + capture on its
// first revision); the deliveries before the suspend followed by those
// after the resume must be exactly the uninterrupted run's, and so must the
// final recognition and statistics.
func TestDeltaResumeInsideLateBurst(t *testing.T) {
	arrivals := chaosArrivals(t, 5, 60)
	base := StreamOptions{
		RunOptions:      RunOptions{Window: 120, Slide: 20},
		MaxDelay:        60,
		CheckpointEvery: 1,
	}
	// Cut inside the longest run of consecutive late admissions that falls
	// after the first few emissions.
	ro := stream.NewReorder(base.MaxDelay)
	cut, run, best := 0, 0, 0
	for i, a := range arrivals {
		if verdict, _ := ro.Push(a); verdict == stream.AdmittedLate && i > len(arrivals)/3 {
			if run++; run > best {
				best, cut = run, i-run/2
			}
		} else {
			run = 0
		}
	}
	if best < 3 {
		t.Fatalf("longest late burst is %d arrivals; need at least 3 to cut inside one", best)
	}

	render := func(sb *strings.Builder) func(WindowResult) error {
		return func(wr WindowResult) error {
			fmt.Fprintf(sb, "window [%d,%d) rev=%d %v retract %v\n", wr.WindowStart, wr.QueryTime, wr.Revision, wr.Recognised, wr.Retracted)
			return nil
		}
	}
	var wantLog strings.Builder
	want, err := mustEngine(t, withinAreaED, Options{Strict: true, DisableDelta: true}).RunStream(arrivals, base, render(&wantLog))
	if err != nil {
		t.Fatal(err)
	}

	e := mustEngine(t, withinAreaED, Options{Strict: true})
	opts := base
	opts.CheckpointPath = filepath.Join(t.TempDir(), "run.ckpt")
	var gotLog strings.Builder
	parkAfter(t, e, arrivals, opts, cut, render(&gotLog))
	// Cut inside the burst, the run holds late time-points not yet
	// evaluated: the suspend checkpoint carries them, and the resumed run
	// must revise exactly as the uninterrupted one does.
	cp, err := LoadCheckpoint(opts.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(cp.payload.Slots, func(cs ckptSlot) bool { return len(cs.Marks) > 0 }) {
		t.Fatalf("the suspend checkpoint after arrival %d carries no marks: the cut is not inside a late burst", cut)
	}
	got, err := resumeStream(e, opts.CheckpointPath, arrivals, opts, render(&gotLog))
	if err != nil {
		t.Fatal(err)
	}
	if gotLog.String() != wantLog.String() {
		t.Fatalf("deliveries across the suspend differ from the uninterrupted run:\n--- resumed\n%s\n--- uninterrupted\n%s", gotLog.String(), wantLog.String())
	}
	if a, b := recognitionFingerprint(t, got.Recognition), recognitionFingerprint(t, want.Recognition); a != b {
		t.Fatal("resumed recognition differs from the uninterrupted run")
	}
	if got.Stats.Revisions != want.Stats.Revisions || got.Stats.Late != want.Stats.Late {
		t.Fatalf("stats differ: %+v vs %+v", got.Stats, want.Stats)
	}
}

// FuzzDeltaEquivalence is the differential fuzz target of the delta layer:
// random streams over the cross-shard hierarchy, random window geometry and
// seeded disorder, requiring the delta path's stream
// output and journal bytes to match full re-evaluation exactly, and the
// stream's final recognition to be the batch Run's.
func FuzzDeltaEquivalence(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 1234, 987654321} {
		f.Add(seed, uint8(0))
	}
	// Seeds whose derived geometry has slide < max-delay (3·slide ≤ delay)
	// and at least ten revisions: several emitted
	// windows contain every late time-point, so revisions replay per-slot
	// carried state. (window/slide/delay: 74/3/86, 40/5/86, 42/9/84,
	// 263/11/90, 41/1/16, 133/14/78.)
	for _, seed := range []int64{237, 351, 381, 390, 395, 282} {
		f.Add(seed, uint8(0))
	}
	// Plausible-but-wrong definitions are the paper's input distribution: two
	// perturbations of the gold maritime description (llm.Perturbations) that
	// warn on every window, so revisions install and replay fluents that
	// carry warnings. (window/slide/delay 540/229/1170 and 495/241/1485: 41
	// and 40 revisions under the dropped conditions, 49 and 51 under the
	// renamed threshold lookups; about a second each as a plain test on
	// 2-core x86-64, well inside the fuzzing engine's 10 s hang limit.)
	for _, seed := range []int64{30, 43} {
		f.Add(seed, uint8(1))
		f.Add(seed, uint8(2))
	}
	cases := deltaFuzzCases(f)
	f.Fuzz(func(t *testing.T, seed int64, which uint8) {
		r := rand.New(rand.NewSource(seed))
		c := cases[int(which)%len(cases)]
		r.Intn(3) // once the worker count: still drawn, so every seed keeps its stream and geometry
		delta, err1 := New(c.ed, Options{Strict: c.strict, ExtraFacts: c.facts})
		full, err2 := New(c.ed, Options{Strict: c.strict, ExtraFacts: c.facts, DisableDelta: true})
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		events := c.events(r)
		events.Sort()
		window := c.scale * int64(20+r.Intn(300))
		minSlide := c.minSlide(window)
		slide := minSlide + int64(r.Intn(int(window-minSlide+1)))
		maxDelay := c.scale * int64(r.Intn(100))
		arrivals, _, _ := stream.Perturb(events, r, maxDelay, 0)
		opts := explicitBounds(StreamOptions{
			RunOptions: RunOptions{Window: window, Slide: slide},
			MaxDelay:   maxDelay,
		}, arrivals)
		var dJ, fJ bytes.Buffer
		dOpts, fOpts := opts, opts
		dOpts.Journal = journal.NewWriter(&dJ, journal.Options{})
		fOpts.Journal = journal.NewWriter(&fJ, journal.Options{})
		// The delta run is fed one arrival at a time, and every revisable
		// slot's retained event index is checked against a rebuild after
		// each: the comparison with the full run below cannot see an index
		// bug, because both runs read the same indexes.
		latest := map[int64]int{} // query time → latest delivered revision
		runner, err1 := delta.NewStreamRunner(dOpts, func(wr WindowResult) error {
			latest[wr.QueryTime] = wr.Revision
			return nil
		})
		for _, ev := range arrivals {
			if err1 != nil {
				break
			}
			if err1 = runner.Ingest(ev); err1 == nil {
				checkRetainedIndexes(t, runner.st)
			}
		}
		var a *StreamResult
		if err1 == nil {
			a, err1 = runner.Finish()
		}
		b, err2 := full.RunStream(arrivals, fOpts, nil)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("error mismatch: delta %v, full %v", err1, err2)
		}
		if err1 != nil {
			return
		}
		if fa, fb := recognitionFingerprint(t, a.Recognition), recognitionFingerprint(t, b.Recognition); fa != fb {
			t.Fatalf("%s seed %d window %d slide %d delay %d: delta differs:\n--- delta\n%s\n--- full\n%s",
				c.name, seed, window, slide, maxDelay, fa, fb)
		}
		if !bytes.Equal(dJ.Bytes(), fJ.Bytes()) {
			t.Fatalf("%s seed %d: journal bytes differ", c.name, seed)
		}
		for q, rev := range latest {
			if bound := revisionBound(maxDelay, slide); rev > bound {
				t.Fatalf("%s seed %d window %d slide %d delay %d: window with query time %d re-delivered %d times, bound %d",
					c.name, seed, window, slide, maxDelay, q, rev, bound)
			}
		}
		// No event is displaced beyond the delay, so the stream's final
		// recognition is the batch run's over the sorted events.
		batch, err := delta.Run(events, opts.RunOptions)
		if err != nil {
			t.Fatal(err)
		}
		if fa, fb := recognitionFingerprint(t, a.Recognition), recognitionFingerprint(t, batch); fa != fb {
			t.Fatalf("%s seed %d window %d slide %d delay %d: stream differs from batch:\n--- stream\n%s\n--- batch\n%s",
				c.name, seed, window, slide, maxDelay, fa, fb)
		}
	})
}

// deltaFuzzCase is one event description of FuzzDeltaEquivalence's corpus
// with the stream it is fuzzed over. Case 0 draws a random stream over the
// cross-shard hierarchy, in single time-points; the maritime cases shuffle
// the first 40 minutes of a fixed three-vessel scenario (508 events), whose
// time-points are seconds — scale stretches the drawn window and delay to
// match, and minSlide keeps the number of windows of one execution bounded.
// The scenario is that small so that no input, seed or mutated, comes near
// the fuzzing engine's 10 s hang limit, past which the engine stops before
// its first mutated input.
type deltaFuzzCase struct {
	name     string
	ed       *lang.EventDescription
	facts    []*lang.Term
	strict   bool
	events   func(*rand.Rand) stream.Stream
	scale    int64
	minSlide func(window int64) int64
}

func deltaFuzzCases(f testing.TB) []deltaFuzzCase {
	ed, err := parser.ParseEventDescription(crossShardED)
	if err != nil {
		f.Fatal(err)
	}
	cases := []deltaFuzzCase{{
		name: "crossShard", ed: ed, strict: true, scale: 1,
		events:   func(r *rand.Rand) stream.Stream { return genCrossShardStream(r, 600) },
		minSlide: func(int64) int64 { return 1 },
	}}
	scen, err := maritime.BuildScenario(maritime.ScenarioConfig{Vessels: 3, Seed: 7, IntervalSec: 60})
	if err != nil {
		f.Fatal(err)
	}
	voyage := maritime.Preprocess(scen.Messages, scen.Map, maritime.DefaultPreprocessConfig())
	voyage.Sort()
	first, _ := voyage.TimeRange()
	voyage = voyage.Window(first, first+40*60)
	facts := maritime.DynamicFacts(voyage, scen.Fleet)
	// Every simple-fluent rule loses a condition — comparisons lose the
	// threshold lookup that bound their operand and warn at every velocity
	// report — or every threshold lookup names a predicate nobody defines.
	ops := []llm.Perturbation{llm.Rename("thresholds", "limits", true)}
	for _, op := range llm.Perturbations(llm.Rates{Drop: 1}) {
		if op.Name == "dropConditions" {
			ops = append([]llm.Perturbation{op}, ops...)
		}
	}
	for _, op := range ops {
		rules := &lang.EventDescription{Clauses: append(llm.MaritimeKnowledge().Perturbed(op, 7), goldDeclarations()...)}
		cases = append(cases, deltaFuzzCase{
			name:     "gold under " + op.Name,
			ed:       maritime.FullED(rules, scen.Map, scen.Fleet, maritime.ObservedPairs(voyage)),
			facts:    facts,
			scale:    15,
			events:   func(*rand.Rand) stream.Stream { return append(stream.Stream{}, voyage...) },
			minSlide: func(window int64) int64 { return (window + 2) / 3 },
		})
	}
	return cases
}
