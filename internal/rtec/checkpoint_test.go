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
	"reflect"
	"runtime"
	"strings"
	"testing"

	"rtecgen/internal/intervals"
	"rtecgen/internal/stream"
	"rtecgen/internal/telemetry"
	"rtecgen/internal/telemetry/journal"
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
	arrivals, _, _ := stream.Perturb(events, r, maxDelay, 0)
	return arrivals
}

func TestCheckpointResumeByteIdentical(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := mustEngine(t, withinAreaED, Options{Strict: true, Telemetry: telemetry.New(reg, nil, nil)})
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
	got, err := resumeStream(e, opts.CheckpointPath, arrivals, opts, nil)
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
		t.Fatalf("resumed stats = %+v, uninterrupted = %+v", got.Stats, want.Stats)
	}
	if got.Stats.Checkpoints == 0 {
		t.Fatal("resumed run lost the checkpoint count")
	}
	if n := reg.Snapshot().Counters["rtec.checkpoint.restores"]; n != 1 {
		t.Fatalf("rtec.checkpoint.restores = %d, want 1", n)
	}
}

// explicitBounds returns opts with the run bounds RunStream derives from the
// whole stream, for driving the same run through a StreamRunner.
func explicitBounds(opts StreamOptions, arrivals stream.Stream) StreamOptions {
	first, last := arrivals.TimeRange()
	opts.Start, opts.End = first, last+1
	return opts
}

// resumeStream continues the run checkpointed at path as a resumed shard
// does: it loads the snapshot, rebuilds a runner with ResumeStreamRunner
// over opts' bounds, or those RunStream derives from arrivals when opts
// leaves them open, re-ingests the arrivals from the snapshot's cursor on
// and finishes.
func resumeStream(e *Engine, path string, arrivals stream.Stream, opts StreamOptions, fn func(WindowResult) error) (*StreamResult, error) {
	cp, err := LoadCheckpoint(path)
	if err != nil {
		return nil, err
	}
	if opts.Start == 0 && opts.End == 0 {
		opts = explicitBounds(opts, arrivals)
	}
	r, err := e.ResumeStreamRunner(cp, opts, fn)
	if err != nil {
		return nil, err
	}
	defer r.Abort()
	for _, a := range arrivals[cp.Consumed:] {
		if err := r.Ingest(a); err != nil {
			return nil, err
		}
	}
	return r.Finish()
}

// continueJournal is what a resumed process does to the journal a killed run
// left in crashed: it keeps the records through sequence number seq (a
// journal numbers its records 1, 2, ... from its first line) and returns
// them with a writer continuing them.
func continueJournal(crashed []byte, seq int64) (*bytes.Buffer, *journal.Writer) {
	kept := bytes.Join(bytes.SplitAfter(crashed, []byte("\n"))[:seq], nil)
	buf := bytes.NewBuffer(kept)
	return buf, journal.NewWriterResumed(buf, journal.Options{}, journal.RecoverInfo{LastSeq: seq, Written: int64(len(kept))})
}

// settle waits for r's checkpoint write in flight, as the runner's next
// cadence write, a suspend, Finish or Abort would, so that the generation
// can be read from disk.
func settle(t *testing.T, r *StreamRunner) {
	t.Helper()
	if err := r.st.writer.wait(); err != nil {
		t.Fatal(err)
	}
}

// ingestRecording feeds arrivals[from:] through r and returns what every
// checkpoint write left on disk, keyed by the run's checkpoint count.
func ingestRecording(t *testing.T, r *StreamRunner, arrivals stream.Stream, from int) map[int64][]byte {
	t.Helper()
	gens := map[int64][]byte{}
	path := r.st.opts.CheckpointPath
	for _, a := range arrivals[from:] {
		before := r.st.stats.Checkpoints
		if err := r.Ingest(a); err != nil {
			t.Fatal(err)
		}
		if r.st.stats.Checkpoints == before {
			continue
		}
		settle(t, r)
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		gens[r.st.stats.Checkpoints] = file
	}
	return gens
}

// TestCheckpointResumeAtEveryCrashPoint kills a checkpointed run after every
// window count in turn and resumes it. The resumed run restores the fold
// and the revisable slots, with no delta state, so beyond the final CSV
// every generation it writes must equal, byte for byte, the generation of
// the same count the uninterrupted run wrote. A kill can also lose the
// write in flight, before its rename: the file is then the previous
// generation, and the run resumes from it, replays longer, and must give
// the same bytes.
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

			lost := 0 // crash points that also lost a write in flight
			for crash := 1; crash < windows; crash++ {
				opts := base
				opts.CheckpointPath = filepath.Join(t.TempDir(), "run.ckpt")
				if _, err := e.RunStream(arrivals, opts, crashAfter(crash)); !errors.Is(err, errCrash) {
					t.Fatalf("crash %d: err = %v", crash, err)
				}
				resume := func(what, path string) {
					t.Helper()
					cp, err := LoadCheckpoint(path)
					if err != nil {
						t.Fatalf("crash %d%s: %v", crash, what, err)
					}
					ropts := opts
					ropts.CheckpointPath = path
					r, err := e.ResumeStreamRunner(cp, ropts, nil)
					if err != nil {
						t.Fatalf("crash %d%s: resume: %v", crash, what, err)
					}
					for n, got := range ingestRecording(t, r, arrivals, cp.Consumed) {
						if !bytes.Equal(got, wantGens[n]) {
							t.Fatalf("crash after %d windows%s: resumed generation %d differs from the uninterrupted run's", crash, what, n)
						}
					}
					got, err := r.Finish()
					if err != nil {
						t.Fatalf("crash %d%s: finish: %v", crash, what, err)
					}
					if csvOf(t, got.Recognition) != wantCSV {
						t.Fatalf("crash after %d windows%s: resumed CSV differs", crash, what)
					}
				}
				resume("", opts.CheckpointPath)

				// The same kill, losing the write in flight: the last
				// generation never landed.
				cp, err := LoadCheckpoint(opts.CheckpointPath)
				if err != nil {
					t.Fatalf("crash %d: %v", crash, err)
				}
				last := cp.payload.Checkpoints
				if readFile(t, opts.CheckpointPath) != string(wantGens[last]) {
					t.Fatalf("crash after %d windows: generation %d differs from the uninterrupted run's", crash, last)
				}
				if last < 2 {
					continue // no earlier generation to fall back to
				}
				beforeRename := filepath.Join(t.TempDir(), "run.ckpt")
				writeFile(t, beforeRename, wantGens[last-1])
				resume(", losing the write in flight before its rename", beforeRename)
				lost++
			}
			if lost == 0 {
				t.Fatal("no crash point had a generation to fall back to: the lost write is not exercised")
			}
		})
	}
}

// TestCheckpointWriteErrorSurfaces: a cadence write that fails behind the
// consumer — its directory is gone — is reported by the next cadence point,
// before that generation is counted or journalled, or else by Finish, before
// run_end is journalled.
func TestCheckpointWriteErrorSurfaces(t *testing.T) {
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	arrivals := chaosArrivals(t, 7, 60)
	start := func(t *testing.T, j *bytes.Buffer) (*StreamRunner, string) {
		dir := filepath.Join(t.TempDir(), "ck")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		r, err := e.NewStreamRunner(explicitBounds(StreamOptions{
			RunOptions:      RunOptions{Window: 100},
			MaxDelay:        60,
			CheckpointPath:  filepath.Join(dir, "run.ckpt"),
			CheckpointEvery: 1,
			Journal:         journal.NewWriter(j, journal.Options{}),
		}, arrivals), nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Abort)
		return r, dir
	}
	// ingestUntil feeds arrivals from i on until r has counted n checkpoints,
	// and returns the next arrival's index.
	ingestUntil := func(t *testing.T, r *StreamRunner, i int, n int64) int {
		for ; r.st.stats.Checkpoints < n; i++ {
			if err := r.Ingest(arrivals[i]); err != nil {
				t.Fatalf("arrival %d: %v", i, err)
			}
		}
		return i
	}
	const want = "rtec: checkpoint: "

	t.Run("next cadence point", func(t *testing.T) {
		var j bytes.Buffer
		r, dir := start(t, &j)
		i := ingestUntil(t, r, 0, 1)
		settle(t, r)
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		i = ingestUntil(t, r, i, 2) // the second generation fails behind the consumer
		records := bytes.Count(j.Bytes(), []byte(`"type":"checkpoint"`))
		var err error
		for ; err == nil && i < len(arrivals); i++ {
			err = r.Ingest(arrivals[i])
		}
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("Ingest err = %v, want the failed write (%q)", err, want)
		}
		if n := r.st.stats.Checkpoints; n != 2 {
			t.Fatalf("%d checkpoints counted, want 2: the cadence point that reported the failure must not count its own", n)
		}
		if n := bytes.Count(j.Bytes(), []byte(`"type":"checkpoint"`)); n != records {
			t.Fatalf("%d checkpoint records, want %d: the cadence point that reported the failure journalled its own", n, records)
		}
	})

	t.Run("finish", func(t *testing.T) {
		var j bytes.Buffer
		r, dir := start(t, &j)
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		ingestUntil(t, r, 0, 1) // the only generation fails behind the consumer
		if _, err := r.Finish(); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("Finish err = %v, want the failed write (%q)", err, want)
		}
		if bytes.Contains(j.Bytes(), []byte(`"type":"run_end"`)) {
			t.Fatalf("run_end journalled after a failed write:\n%s", j.Bytes())
		}
	})
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
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
	// Version 1 listed every emitted window and version 2 recorded no
	// journal position; there is no reader for either.
	for _, v := range []int{1, 2} {
		corrupt(fmt.Sprintf("version %d", v), func(cf checkpointFile) checkpointFile {
			cf.Version = v
			return cf
		}, fmt.Sprintf("format version %d, this build reads only version 3", v))
	}
	corrupt("payload", func(cf checkpointFile) checkpointFile {
		// Change one field of the payload without touching the checksum.
		p := bytes.Replace(cf.Payload, []byte(`"started":true`), []byte(`"started":false`), 1)
		if bytes.Equal(p, cf.Payload) {
			t.Fatal("the test checkpoint has no started frontier to corrupt")
		}
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
	if _, err := resumeStream(other, path, arrivals, opts, nil); err == nil ||
		!strings.Contains(err.Error(), "different event description") {
		t.Fatalf("ED mismatch err = %v", err)
	}

	// Different window geometry.
	badGeom := opts
	badGeom.Window = 20
	if _, err := resumeStream(e, path, arrivals, badGeom, nil); err == nil ||
		!strings.Contains(err.Error(), "geometry") {
		t.Fatalf("geometry mismatch err = %v", err)
	}

	// Different delay bound.
	badDelay := opts
	badDelay.MaxDelay = 5
	if _, err := resumeStream(e, path, arrivals, badDelay, nil); err == nil ||
		!strings.Contains(err.Error(), "max delay") {
		t.Fatalf("max delay mismatch err = %v", err)
	}
}

// TestCheckpointWriteIsAtomic: a generation is written to "<path>.tmp" and
// renamed over the checkpoint, so a stale temporary file a killed write
// left behind — junk here — is overwritten, and after the run the
// directory holds only the checkpoint, which loads.
func TestCheckpointWriteIsAtomic(t *testing.T) {
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	path := filepath.Join(t.TempDir(), "run.ckpt")
	writeFile(t, path+".tmp", []byte("junk a killed write left behind"))
	if _, err := e.RunStream(stream.Stream{ev(2, "entersArea(v1, a1)"), ev(35, "leavesArea(v1, a1)")}, StreamOptions{
		RunOptions:     RunOptions{Window: 10, Start: 0, End: 40},
		MaxDelay:       20,
		CheckpointPath: path,
	}, nil); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != filepath.Base(path) {
		t.Fatalf("files next to the checkpoint = %v, want exactly %s", entries, filepath.Base(path))
	}
	if _, err := LoadCheckpoint(path); err != nil {
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
	shuffled, _, _ := stream.Perturb(events, r, maxDelay, 0)
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
	got, err := resumeStream(e, opts.CheckpointPath, arrivals, opts, nil)
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
	wantLine := "observed=169 accepted=162 late=98 duplicates=4 dropped=3 revisions=4"
	if gotLine != wantLine {
		t.Fatalf("pinned stats changed:\n have %s\n want %s", gotLine, wantLine)
	}
}

// TestResumeFromTruncatedCheckpoint is the torn-write regression test: the
// checkpoint is truncated mid-file (as a crash during the write would leave
// it without the atomic rename, or a bad disk after it), and the resume
// must fail naming the file — there is no older generation to fall back
// to — while the intact file still reproduces the uninterrupted run byte
// for byte.
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

	raw, err := os.ReadFile(opts.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumeStream(e, opts.CheckpointPath, arrivals, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := csvOf(t, want.Recognition), csvOf(t, got.Recognition); a != b {
		t.Fatalf("resume from the checkpoint differs:\n%s\nvs\n%s", b, a)
	}

	// Tear the generation in half.
	if err := os.WriteFile(opts.CheckpointPath, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := resumeStream(e, opts.CheckpointPath, arrivals, opts, nil); err == nil ||
		!strings.Contains(err.Error(), opts.CheckpointPath) {
		t.Fatalf("resume from a torn checkpoint: err = %v, want one naming %s", err, opts.CheckpointPath)
	}
}

// referenceEnvelope marshals a payload into the checkpoint file the writer
// produces: the checksum over the marshalled payload, then json.Marshal of
// the envelope around it.
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

// foldOracle amalgamates the latest delivery of each of st's windows in
// [from, to), keyed by query time in latest, as the whole-run amalgamation
// did before the fold: every window's lists unioned by key.
func foldOracle(st *streamRun, latest map[int64]WindowResult, from, to int) map[string]intervals.List {
	out := map[string]intervals.List{}
	for i := from; i < to; i++ {
		for k, l := range latest[st.tl.q(i)].Recognised {
			out[k] = intervals.Union(out[k], l)
		}
	}
	return out
}

// TestCheckpointBytesMatchFullEncode: after every generation — cadence
// checkpoints and suspend checkpoints taken mid-cadence alike, whatever the
// geometry, the arrival order and the evaluation mode — the file on disk is
// json.Marshal of the payload it loads to, and a runner restored from it
// encodes the same bytes again; its fold section is the union of the latest
// deliveries of the windows the cursor has passed, and its slots those of
// the revisable tail.
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
						latest := map[int64]WindowResult{}
						r, err := e.NewStreamRunner(opts, func(w WindowResult) error {
							latest[w.QueryTime] = w
							return nil
						})
						if err != nil {
							t.Fatal(err)
						}
						defer r.Abort()
						st := r.st
						cadence, suspends := 0, 0
						check := func(what string, at int) {
							t.Helper()
							settle(t, r)
							got, err := os.ReadFile(opts.CheckpointPath)
							if err != nil {
								t.Fatal(err)
							}
							cp, err := LoadCheckpoint(opts.CheckpointPath)
							if err != nil {
								t.Fatal(err)
							}
							if want := referenceEnvelope(t, cp.payload); !bytes.Equal(got, want) {
								t.Fatalf("%s checkpoint after arrival %d (%d windows, %d final) is not json.Marshal of its payload:\n have %s\n want %s",
									what, at, st.emitted, st.final, got, want)
							}
							restored, err := e.ResumeStreamRunner(cp, opts, nil)
							if err != nil {
								t.Fatal(err)
							}
							again, err := restored.st.encodeSnapshot()
							restored.Abort()
							if err != nil {
								t.Fatal(err)
							}
							if !bytes.Equal(again, got) {
								t.Fatalf("%s checkpoint after arrival %d: a runner restored from it encodes other bytes:\n have %s\n want %s", what, at, again, got)
							}
							p := cp.payload
							fold := map[string]intervals.List{}
							if _, err := fvpsFromCkpt(p.Fold, fold); err != nil {
								t.Fatal(err)
							}
							if want := foldOracle(st, latest, 0, p.Final); !reflect.DeepEqual(fold, want) {
								t.Fatalf("%s checkpoint after arrival %d: the fold of %d windows is\n %v\nthe union of their latest deliveries\n %v", what, at, p.Final, fold, want)
							}
							for j, cs := range p.Slots {
								got := map[string]intervals.List{}
								if _, err := fvpsFromCkpt(cs.Recognised, got); err != nil {
									t.Fatal(err)
								}
								if want := foldOracle(st, latest, p.Final+j, p.Final+j+1); !reflect.DeepEqual(got, want) {
									t.Fatalf("%s checkpoint after arrival %d: slot %d is not the window's latest delivery", what, at, p.Final+j)
								}
							}
						}
						for i, a := range order.arrivals {
							before := r.st.stats.Checkpoints
							if err := r.Ingest(a); err != nil {
								t.Fatal(err)
							}
							switch {
							case r.st.stats.Checkpoints != before:
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
							t.Fatalf("%d cadence and %d mid-cadence suspend checkpoints, %d final windows: the run does not exercise the fold", cadence, suspends, st.final)
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
		}, fmt.Sprintf("%d windows emitted, %d final, but 9 slots", cp.Windows, cp.payload.Final)},
		{"fewer slots than windows", func(p *checkpointPayload) {
			p.Slots = p.Slots[:len(p.Slots)-1]
		}, fmt.Sprintf("%d windows emitted, %d final, but %d slots", cp.Windows, cp.payload.Final, len(cp.payload.Slots)-1)},
		{"cursor past the windows emitted", func(p *checkpointPayload) {
			p.Final, p.Slots = p.Emitted+1, nil
		}, fmt.Sprintf("%d windows emitted, %d final", cp.Windows, cp.Windows+1)},
		{"negative cursor", func(p *checkpointPayload) {
			p.Final = -1
		}, fmt.Sprintf("%d windows emitted, -1 final", cp.Windows)},
		{"negative window count", func(p *checkpointPayload) {
			p.Emitted, p.Final, p.Slots = -1, 0, nil
		}, "-1 windows emitted, 0 final, but 0 slots"},
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
			_, err := resumeStream(e, forged, arrivals, opts, nil)
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
// where the margin goes: measured 4 812 against 2 553 with the fold section,
// and 7 576 against 30 357 when every write re-encoded every window
// emitted), and a write with nothing emitted allocates checkpointEmptyAllocs
// at most, whatever the size of the event description.
const (
	checkpointFlatMargin  = 2000
	checkpointEmptyAllocs = 40
)

func TestCheckpointCostFlatInWindows(t *testing.T) {
	e, events := goldScenario(t)
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
		data, err := idle.st.encodeSnapshot()
		if err == nil {
			err = writeGeneration(opts.CheckpointPath, data)
		}
		if err != nil {
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
		n := r.st.stats.Checkpoints
		runtime.ReadMemStats(&before)
		if err := r.Ingest(a); err != nil {
			t.Fatal(err)
		}
		if r.st.stats.Checkpoints != n {
			runtime.ReadMemStats(&after)
			mallocs[r.st.stats.Checkpoints] = after.Mallocs - before.Mallocs
		}
	}
	at10, at50, at100 := mallocs[10], mallocs[50], mallocs[100]
	if at10 == 0 || at100 == 0 {
		t.Fatalf("the run wrote %d checkpoints, want at least 100", r.st.stats.Checkpoints)
	}
	t.Logf("allocs of the Ingest writing checkpoint 10 / 50 / 100: %d / %d / %d (margin %d)", at10, at50, at100, checkpointFlatMargin)
	if at100 > at10+checkpointFlatMargin {
		t.Fatalf("the Ingest writing checkpoint 100 allocates %d objects, the one writing checkpoint 10 %d: a checkpoint's cost grows with the windows emitted", at100, at10)
	}
}
