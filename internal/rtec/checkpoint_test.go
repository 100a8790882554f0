package rtec

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"rtecgen/internal/stream"
)

// errCrash simulates a process kill from inside the delivery callback.
var errCrash = errors.New("simulated crash")

// crashAfter returns a delivery callback that fails after n windows.
func crashAfter(n int) func(WindowResult) error {
	return func(WindowResult) error {
		n--
		if n < 0 {
			return errCrash
		}
		return nil
	}
}

func chaosArrivals(t *testing.T, seed int64, maxDelay int64) stream.Stream {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	var events stream.Stream
	for i := 0; i < 120; i++ {
		events = append(events, genRandomStream(r, 1000)...)
		if len(events) >= 120 {
			break
		}
	}
	events.Sort()
	return boundedShuffle(r, events, maxDelay)
}

func TestCheckpointResumeByteIdentical(t *testing.T) {
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	arrivals := chaosArrivals(t, 7, 60)
	base := StreamOptions{
		RunOptions: RunOptions{Window: 100},
		MaxDelay:   60,
	}

	// Baseline: the uninterrupted run.
	want, err := e.RunStream(arrivals, base, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: checkpoint every 2 windows, crash after 3 windows.
	opts := base
	opts.CheckpointPath = filepath.Join(t.TempDir(), "run.ckpt")
	opts.CheckpointEvery = 2
	if _, err := e.RunStream(arrivals, opts, crashAfter(3)); !errors.Is(err, errCrash) {
		t.Fatalf("interrupted run err = %v, want crash", err)
	}
	cp, err := LoadCheckpoint(opts.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Windows == 0 || cp.Consumed == 0 {
		t.Fatalf("checkpoint made no progress: %+v", cp)
	}
	if cp.Consumed >= len(arrivals) {
		t.Fatalf("checkpoint consumed the whole stream (%d of %d): crash came too late to test resume", cp.Consumed, len(arrivals))
	}

	// Resume: the final recognition is byte-identical to the baseline.
	got, err := e.ResumeStream(opts.CheckpointPath, arrivals, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := csvOf(t, want.Recognition), csvOf(t, got.Recognition); a != b {
		t.Fatalf("resumed CSV differs from uninterrupted run:\n%s\nvs\n%s", b, a)
	}
	// Disorder stats cover the whole stream, not just the resumed tail.
	if got.Stats.Observed != want.Stats.Observed ||
		got.Stats.Accepted != want.Stats.Accepted ||
		got.Stats.Late != want.Stats.Late ||
		got.Stats.Dropped != want.Stats.Dropped ||
		got.Stats.Duplicates != want.Stats.Duplicates ||
		got.Stats.Revisions != want.Stats.Revisions {
		t.Fatalf("resumed stats = %s, uninterrupted = %s", got.Stats, want.Stats)
	}
	if got.Stats.Checkpoints == 0 {
		t.Fatal("resumed run lost the checkpoint count")
	}
}

// explicitBounds returns opts with the run bounds RunStream derives from the
// whole stream, for driving the same run through a StreamRunner.
func explicitBounds(opts StreamOptions, arrivals stream.Stream) StreamOptions {
	first, last := arrivals.TimeRange()
	opts.Start, opts.End = first, last+1
	return opts
}

// generation is one checkpoint write as it left the disk: the file and the
// generation rotated aside under checkpointPrevSuffix (nil before the second).
type generation struct{ file, prev []byte }

// ingestRecording feeds arrivals[from:] through r and returns what every
// checkpoint write left on disk, keyed by the run's checkpoint count.
func ingestRecording(t *testing.T, r *StreamRunner, arrivals stream.Stream, from int) map[int64]generation {
	t.Helper()
	gens := map[int64]generation{}
	path := r.st.opts.CheckpointPath
	for _, a := range arrivals[from:] {
		before := r.Checkpoints()
		if err := r.Ingest(a); err != nil {
			t.Fatal(err)
		}
		if r.Checkpoints() == before {
			continue
		}
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		prev, _ := os.ReadFile(path + checkpointPrevSuffix)
		gens[r.Checkpoints()] = generation{file, prev}
	}
	return gens
}

// TestCheckpointResumeAtEveryCrashPoint kills a checkpointed run after every
// window count in turn and resumes it. The resumed run starts with no frozen
// encoding and rebuilds it from the restored slots as the revision cursor
// passes them, so beyond the final CSV every generation it writes (file and
// .prev) must equal, byte for byte, the generation of the same count the
// uninterrupted run wrote.
func TestCheckpointResumeAtEveryCrashPoint(t *testing.T) {
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	arrivals := chaosArrivals(t, 11, 40)
	for _, geom := range []struct {
		name  string
		slide int64
	}{{"tumbling", 0}, {"sliding", 20}} {
		t.Run(geom.name, func(t *testing.T) {
			base := explicitBounds(StreamOptions{
				RunOptions:      RunOptions{Window: 80, Slide: geom.slide},
				MaxDelay:        40,
				CheckpointEvery: 1,
			}, arrivals)

			opts := base
			opts.CheckpointPath = filepath.Join(t.TempDir(), "run.ckpt")
			whole, err := e.NewStreamRunner(opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantGens := ingestRecording(t, whole, arrivals, 0)
			want, err := whole.Finish()
			if err != nil {
				t.Fatal(err)
			}
			wantCSV := csvOf(t, want.Recognition)
			windows := whole.Windows()

			for crash := 1; crash < windows; crash++ {
				opts := base
				opts.CheckpointPath = filepath.Join(t.TempDir(), "run.ckpt")
				if _, err := e.RunStream(arrivals, opts, crashAfter(crash)); !errors.Is(err, errCrash) {
					t.Fatalf("crash %d: err = %v", crash, err)
				}
				cp, _, err := LoadCheckpointWithFallback(opts.CheckpointPath)
				if err != nil {
					t.Fatalf("crash %d: %v", crash, err)
				}
				r, err := e.ResumeStreamRunner(cp, opts, nil)
				if err != nil {
					t.Fatalf("crash %d: resume: %v", crash, err)
				}
				for n, got := range ingestRecording(t, r, arrivals, cp.Consumed) {
					if !bytes.Equal(got.file, wantGens[n].file) {
						t.Fatalf("crash after %d windows: resumed generation %d differs from the uninterrupted run's", crash, n)
					}
					if !bytes.Equal(got.prev, wantGens[n].prev) {
						t.Fatalf("crash after %d windows: resumed generation %d keeps a different .prev", crash, n)
					}
				}
				got, err := r.Finish()
				if err != nil {
					t.Fatalf("crash %d: finish: %v", crash, err)
				}
				if csvOf(t, got.Recognition) != wantCSV {
					t.Fatalf("crash after %d windows: resumed CSV differs", crash)
				}
			}
		})
	}
}

// writeTestCheckpoint runs a short checkpointed stream and returns the path.
func writeTestCheckpoint(t *testing.T, e *Engine) (string, StreamOptions, stream.Stream) {
	t.Helper()
	arrivals := stream.Stream{
		ev(2, "entersArea(v1, a1)"),
		ev(25, "gap_start(v9)"),
		ev(35, "leavesArea(v1, a1)"),
	}
	opts := StreamOptions{
		RunOptions:     RunOptions{Window: 10, Start: 0, End: 40},
		MaxDelay:       20,
		CheckpointPath: filepath.Join(t.TempDir(), "run.ckpt"),
	}
	if _, err := e.RunStream(arrivals, opts, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(opts.CheckpointPath); err != nil {
		t.Fatal(err)
	}
	return opts.CheckpointPath, opts, arrivals
}

func TestLoadCheckpointRejectsCorruption(t *testing.T) {
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	path, _, _ := writeTestCheckpoint(t, e)

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f checkpointFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}

	corrupt := func(name string, mutate func(cf checkpointFile) checkpointFile, wantMsg string) {
		t.Helper()
		out, err := json.Marshal(mutate(f))
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(t.TempDir(), name+".ckpt")
		if err := os.WriteFile(p, out, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(p); err == nil || !strings.Contains(err.Error(), wantMsg) {
			t.Fatalf("%s: err = %v, want %q", name, err, wantMsg)
		}
	}

	corrupt("magic", func(cf checkpointFile) checkpointFile {
		cf.Magic = "not-a-checkpoint"
		return cf
	}, "not an RTEC checkpoint")
	corrupt("version", func(cf checkpointFile) checkpointFile {
		cf.Version = checkpointVersion + 1
		return cf
	}, "format version")
	corrupt("payload", func(cf checkpointFile) checkpointFile {
		// Flip one byte of the payload without touching the checksum.
		p := append(json.RawMessage(nil), cf.Payload...)
		p[len(p)/2] ^= 0x01
		cf.Payload = p
		return cf
	}, "checksum mismatch")

	if _, err := LoadCheckpoint(filepath.Join(t.TempDir(), "missing.ckpt")); err == nil {
		t.Fatal("missing checkpoint loaded")
	}
	garbled := filepath.Join(t.TempDir(), "garbled.ckpt")
	if err := os.WriteFile(garbled, []byte("not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(garbled); err == nil {
		t.Fatal("garbled checkpoint loaded")
	}
}

func TestResumeRejectsMismatchedRun(t *testing.T) {
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	path, opts, arrivals := writeTestCheckpoint(t, e)

	// Different event description.
	other := mustEngine(t, withinAreaED+"\ninputEvent(extra(_)).\n", Options{Strict: true})
	if _, err := other.ResumeStream(path, arrivals, opts, nil); err == nil ||
		!strings.Contains(err.Error(), "different event description") {
		t.Fatalf("ED mismatch err = %v", err)
	}

	// Different window geometry.
	badGeom := opts
	badGeom.Window = 20
	if _, err := e.ResumeStream(path, arrivals, badGeom, nil); err == nil ||
		!strings.Contains(err.Error(), "geometry") {
		t.Fatalf("geometry mismatch err = %v", err)
	}

	// Different delay bound.
	badDelay := opts
	badDelay.MaxDelay = 5
	if _, err := e.ResumeStream(path, arrivals, badDelay, nil); err == nil ||
		!strings.Contains(err.Error(), "max delay") {
		t.Fatalf("max delay mismatch err = %v", err)
	}

	// Stream shorter than the checkpoint's progress.
	if _, err := e.ResumeStream(path, arrivals[:1], opts, nil); err == nil ||
		!strings.Contains(err.Error(), "arrivals") {
		t.Fatalf("short stream err = %v", err)
	}
}

func TestCheckpointWriteIsAtomic(t *testing.T) {
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	path, _, _ := writeTestCheckpoint(t, e)
	// Exactly the current and previous generations remain next to the
	// checkpoint — no leftover temp files, no second format.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Base(path) // ReadDir sorts by name: base, then base.prev
	if len(entries) != 2 || entries[0].Name() != base || entries[1].Name() != base+checkpointPrevSuffix {
		t.Fatalf("files next to the checkpoint = %v, want exactly %s and %s", entries, base, base+checkpointPrevSuffix)
	}
	// Both generations must load and verify.
	if _, err := LoadCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path + checkpointPrevSuffix); err != nil {
		t.Fatal(err)
	}
}

// TestChaosShuffleKillResume is the pinned deterministic chaos test: a fixed
// seed shuffles a stream within the delay bound, the run is killed mid-way
// and resumed from its checkpoint, and both the disorder statistics and the
// final recognition CSV are pinned against the in-order baseline.
func TestChaosShuffleKillResume(t *testing.T) {
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	r := rand.New(rand.NewSource(42))
	var events stream.Stream
	for len(events) < 150 {
		events = append(events, genRandomStream(r, 2000)...)
	}
	events.Sort()
	const maxDelay = 150
	shuffled := boundedShuffle(r, events, maxDelay)
	// Inject exact duplicates at deterministic positions, adjacent to their
	// originals so they are still buffered when the copy arrives.
	var arrivals stream.Stream
	for i, e := range shuffled {
		arrivals = append(arrivals, e)
		if i%40 == 5 {
			arrivals = append(arrivals, e)
		}
	}
	// Tail a few hopelessly stale arrivals: far behind the final frontier,
	// they must be dropped, never reordered into the past.
	arrivals = append(arrivals, events[0], events[1], events[2])

	inOrder, err := e.Run(events, RunOptions{Window: 100})
	if err != nil {
		t.Fatal(err)
	}
	wantCSV := csvOf(t, inOrder)

	opts := StreamOptions{
		RunOptions:      RunOptions{Window: 200},
		MaxDelay:        maxDelay,
		CheckpointPath:  filepath.Join(t.TempDir(), "chaos.ckpt"),
		CheckpointEvery: 2,
	}
	if _, err := e.RunStream(arrivals, opts, crashAfter(4)); !errors.Is(err, errCrash) {
		t.Fatalf("kill err = %v", err)
	}
	got, err := e.ResumeStream(opts.CheckpointPath, arrivals, opts, nil)
	if err != nil {
		t.Fatal(err)
	}

	if csvOf(t, got.Recognition) != wantCSV {
		t.Fatalf("chaos run CSV differs from in-order baseline:\n%s\nvs\n%s", csvOf(t, got.Recognition), wantCSV)
	}
	// Pinned counters for seed 42: the run is fully deterministic, so any
	// change here is a behaviour change, not flakiness.
	gotLine := fmt.Sprintf("observed=%d accepted=%d late=%d duplicates=%d dropped=%d revisions=%d",
		got.Stats.Observed, got.Stats.Accepted, got.Stats.Late,
		got.Stats.Duplicates, got.Stats.Dropped, got.Stats.Revisions)
	wantLine := "observed=169 accepted=162 late=98 duplicates=4 dropped=3 revisions=10"
	if gotLine != wantLine {
		t.Fatalf("pinned stats changed:\n have %s\n want %s", gotLine, wantLine)
	}
}

// TestResumeFromTruncatedCheckpoint is the torn-write regression test: the
// current checkpoint generation is truncated mid-file (as a crash during the
// write would leave it without the atomic rename, or a bad disk after it),
// and resume must fall back to the previous generation and still reproduce
// the uninterrupted run byte for byte.
func TestResumeFromTruncatedCheckpoint(t *testing.T) {
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	arrivals := chaosArrivals(t, 7, 60)
	base := StreamOptions{
		RunOptions: RunOptions{Window: 100},
		MaxDelay:   60,
	}
	want, err := e.RunStream(arrivals, base, nil)
	if err != nil {
		t.Fatal(err)
	}

	opts := base
	opts.CheckpointPath = filepath.Join(t.TempDir(), "run.ckpt")
	opts.CheckpointEvery = 1
	if _, err := e.RunStream(arrivals, opts, crashAfter(3)); !errors.Is(err, errCrash) {
		t.Fatalf("interrupted run err = %v, want crash", err)
	}

	// Tear the current generation in half.
	raw, err := os.ReadFile(opts.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(opts.CheckpointPath, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(opts.CheckpointPath); err == nil {
		t.Fatal("truncated checkpoint loaded")
	}
	cp, from, err := LoadCheckpointWithFallback(opts.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if from != opts.CheckpointPath+checkpointPrevSuffix {
		t.Fatalf("fallback loaded %s", from)
	}
	if cp.Windows == 0 {
		t.Fatal("previous generation made no progress")
	}

	got, err := e.ResumeStream(opts.CheckpointPath, arrivals, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := csvOf(t, want.Recognition), csvOf(t, got.Recognition); a != b {
		t.Fatalf("resume from previous generation differs:\n%s\nvs\n%s", b, a)
	}

	// With both generations torn (the resumed run above rewrote fresh
	// snapshots, so tear both again), resume reports both.
	if err := os.WriteFile(opts.CheckpointPath, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(opts.CheckpointPath+checkpointPrevSuffix, raw[:3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadCheckpointWithFallback(opts.CheckpointPath); err == nil ||
		!strings.Contains(err.Error(), "previous generation") {
		t.Fatalf("double corruption err = %v", err)
	}
}

// referenceSnapshot is the whole-snapshot encoder every checkpoint was
// written with before the frozen-prefix cache: every emitted slot snapshotted
// afresh, the payload marshalled in one piece. Kept as the oracle the
// incremental encoder (streamRun.encodeSnapshot) is compared against.
func referenceSnapshot(st *streamRun) checkpointPayload {
	rs := st.reorder.State()
	p := checkpointPayload{checkpointHeader: checkpointHeader{
		EDSum:  st.eng.edFingerprint(),
		Window: st.tl.window, Slide: st.tl.slide,
		Start: st.tl.start, End: st.tl.end,
		MaxDelay:    st.opts.MaxDelay,
		Consumed:    st.consumed,
		Emitted:     st.emitted,
		Revisions:   st.stats.Revisions,
		Checkpoints: st.stats.Checkpoints,
		SinceCkpt:   st.sinceCkpt,
		Frontier:    rs.Frontier,
		Started:     rs.Started,
		Disorder: ckptDisorder{
			Observed: rs.Stats.Observed, Accepted: rs.Stats.Accepted,
			Late: rs.Stats.Late, Duplicates: rs.Stats.Duplicates, Dropped: rs.Stats.Dropped,
		},
	}}
	for _, e := range rs.Buffered {
		p.Buffered = append(p.Buffered, ckptEvent{T: e.Time, Atom: e.Atom.String()})
	}
	for i := 0; i < st.emitted; i++ {
		slot := st.slots[i]
		cs := ckptSlot{Revision: slot.revision}
		keys := make([]string, 0, len(slot.eval.recognised))
		for k := range slot.eval.recognised {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			cs.Recognised = append(cs.Recognised, fvpToCkpt(slot.eval.fvps[k], slot.eval.recognised[k]))
		}
		open := make([]string, 0, len(slot.eval.nextOpen))
		for k := range slot.eval.nextOpen {
			open = append(open, k)
		}
		sort.Strings(open)
		for _, k := range open {
			cs.NextOpen = append(cs.NextOpen, fvpToCkpt(slot.eval.nextOpen[k], nil))
		}
		p.Slots = append(p.Slots, cs)
	}
	return p
}

// referenceEnvelope marshals a payload into the checkpoint file the
// whole-snapshot writer produced: the checksum over the marshalled payload,
// then json.Marshal of the envelope around it.
func referenceEnvelope(t *testing.T, p checkpointPayload) []byte {
	t.Helper()
	payload, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(payload)
	data, err := json.Marshal(checkpointFile{
		Magic:    checkpointMagic,
		Version:  checkpointVersion,
		Checksum: fmt.Sprintf("%016x", h.Sum64()),
		Payload:  payload,
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCheckpointBytesMatchFullEncode: after every generation — cadence
// checkpoints and suspend checkpoints taken mid-cadence alike — the file on
// disk is the reference encoding of the run's state and the generation
// rotated aside is the previous write, whatever the geometry, the arrival
// order and the evaluation mode.
func TestCheckpointBytesMatchFullEncode(t *testing.T) {
	shuffled := chaosArrivals(t, 7, 60)
	inOrder := append(stream.Stream(nil), shuffled...)
	inOrder.Sort()
	for _, geom := range []struct {
		name  string
		slide int64
	}{{"tumbling", 0}, {"slide=w/4", 30}, {"slide=w/12", 10}} {
		for _, order := range []struct {
			name     string
			arrivals stream.Stream
		}{{"in-order", inOrder}, {"shuffled", shuffled}} {
			for _, noDelta := range []bool{false, true} {
				for _, every := range []int{1, 3} {
					name := fmt.Sprintf("%s/%s/noDelta=%v/every=%d", geom.name, order.name, noDelta, every)
					t.Run(name, func(t *testing.T) {
						e := mustEngine(t, withinAreaED, Options{Strict: true, DisableDelta: noDelta})
						opts := explicitBounds(StreamOptions{
							RunOptions:      RunOptions{Window: 120, Slide: geom.slide},
							MaxDelay:        60,
							CheckpointPath:  filepath.Join(t.TempDir(), "run.ckpt"),
							CheckpointEvery: every,
						}, order.arrivals)
						r, err := e.NewStreamRunner(opts, nil)
						if err != nil {
							t.Fatal(err)
						}
						defer r.Abort()
						st := r.st
						var last []byte
						cadence, suspends := 0, 0
						check := func(what string, at int) {
							t.Helper()
							got, err := os.ReadFile(opts.CheckpointPath)
							if err != nil {
								t.Fatal(err)
							}
							if want := referenceEnvelope(t, referenceSnapshot(st)); !bytes.Equal(got, want) {
								t.Fatalf("%s checkpoint after arrival %d (%d windows, %d final) is not the reference encoding:\n have %s\n want %s",
									what, at, st.emitted, st.final, got, want)
							}
							if prev, _ := os.ReadFile(opts.CheckpointPath + checkpointPrevSuffix); !bytes.Equal(prev, last) {
								t.Fatalf("%s checkpoint after arrival %d rotated aside something other than the previous generation", what, at)
							}
							last = got
						}
						for i, a := range order.arrivals {
							before := r.Checkpoints()
							if err := r.Ingest(a); err != nil {
								t.Fatal(err)
							}
							switch {
							case r.Checkpoints() != before:
								cadence++
								check("cadence", i)
							case st.sinceCkpt > 0 && i%5 == 0:
								if err := st.writeSuspendCheckpoint(); err != nil {
									t.Fatal(err)
								}
								suspends++
								check("suspend", i)
							}
						}
						if cadence == 0 || st.final < 2 || (every > 1 && suspends == 0) {
							t.Fatalf("%d cadence and %d mid-cadence suspend checkpoints, %d final windows: the run does not exercise the frozen prefix", cadence, suspends, st.final)
						}
					})
				}
			}
		}
	}
}

// TestRestoreRejectsInconsistentSlotCount: the checksum is fnv, not a MAC —
// any writer can produce an envelope that verifies — so restore must not
// trust the payload's slot list to agree with its window count.
func TestRestoreRejectsInconsistentSlotCount(t *testing.T) {
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	path, opts, arrivals := writeTestCheckpoint(t, e)
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(p *checkpointPayload)
		want   string
	}{
		{"more slots than the run plans", func(p *checkpointPayload) {
			for len(p.Slots) <= 8 {
				p.Slots = append(p.Slots, p.Slots[0])
			}
		}, fmt.Sprintf("%d windows emitted but 9 slots", cp.Windows)},
		{"fewer slots than windows", func(p *checkpointPayload) {
			p.Slots = p.Slots[:len(p.Slots)-1]
		}, fmt.Sprintf("%d windows emitted but %d slots", cp.Windows, cp.Windows-1)},
		{"negative window count", func(p *checkpointPayload) {
			p.Emitted, p.Slots = -1, nil
		}, "-1 windows emitted but 0 slots"},
		{"negative arrival count", func(p *checkpointPayload) {
			p.Consumed = -1
		}, "consumed=-1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := cp.payload
			p.Slots = append([]ckptSlot(nil), p.Slots...)
			tc.mutate(&p)
			forged := filepath.Join(t.TempDir(), "forged.ckpt")
			if err := os.WriteFile(forged, referenceEnvelope(t, p), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadCheckpoint(forged); err != nil {
				t.Fatalf("the forged envelope must verify, or restore is never reached: %v", err)
			}
			_, err := e.ResumeStream(forged, arrivals, opts, nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one naming %q", err, tc.want)
			}
		})
	}
}

// Checkpoint cost is gated by allocation count, like windowAllocCeiling: on a
// sliding run over the gold event description the Ingest that writes
// checkpoint 100 may allocate at most checkpointFlatMargin objects more than
// the one that writes checkpoint 10 (both also evaluate one window, which is
// where the margin goes: measured 5 827 against 2 299, and 7 576 against
// 30 357 when every write re-encoded every window emitted), and a write with
// nothing emitted allocates checkpointEmptyAllocs at most, whatever the size
// of the event description.
const (
	checkpointFlatMargin  = 2000
	checkpointEmptyAllocs = 40
)

func TestCheckpointCostFlatInWindows(t *testing.T) {
	e, events := goldScenario(t, 1)
	opts := explicitBounds(StreamOptions{
		RunOptions:     RunOptions{Window: 3600, Slide: 300},
		MaxDelay:       900,
		CheckpointPath: filepath.Join(t.TempDir(), "run.ckpt"),
	}, events)

	// A write must not print the event description: on a runner that has
	// emitted nothing it costs a fixed few dozen objects (the first call pays
	// for the engine's fingerprint).
	idle, err := e.NewStreamRunner(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Abort()
	empty := testing.AllocsPerRun(5, func() {
		if _, err := idle.st.writeSnapshotFile(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per write of an empty run (%d clauses in the event description), ceiling %d", empty, len(e.ed.Clauses), checkpointEmptyAllocs)
	if empty > checkpointEmptyAllocs {
		t.Fatalf("a checkpoint of an empty run allocates %.0f objects, ceiling %d", empty, checkpointEmptyAllocs)
	}

	r, err := e.NewStreamRunner(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Abort()
	mallocs := map[int64]uint64{}
	var before, after runtime.MemStats
	for _, a := range events {
		n := r.Checkpoints()
		runtime.ReadMemStats(&before)
		if err := r.Ingest(a); err != nil {
			t.Fatal(err)
		}
		if r.Checkpoints() != n {
			runtime.ReadMemStats(&after)
			mallocs[r.Checkpoints()] = after.Mallocs - before.Mallocs
		}
	}
	at10, at50, at100 := mallocs[10], mallocs[50], mallocs[100]
	if at10 == 0 || at100 == 0 {
		t.Fatalf("the run wrote %d checkpoints, want at least 100", r.Checkpoints())
	}
	t.Logf("allocs of the Ingest writing checkpoint 10 / 50 / 100: %d / %d / %d (margin %d)", at10, at50, at100, checkpointFlatMargin)
	if at100 > at10+checkpointFlatMargin {
		t.Fatalf("the Ingest writing checkpoint 100 allocates %d objects, the one writing checkpoint 10 %d: a checkpoint's cost grows with the windows emitted", at100, at10)
	}
}
