package rtec

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
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

func TestCheckpointResumeAtEveryCrashPoint(t *testing.T) {
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	arrivals := chaosArrivals(t, 11, 40)
	base := StreamOptions{
		RunOptions: RunOptions{Window: 80},
		MaxDelay:   40,
	}
	want, err := e.RunStream(arrivals, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantCSV := csvOf(t, want.Recognition)

	var windows int
	if _, err := e.RunStream(arrivals, base, func(WindowResult) error { windows++; return nil }); err != nil {
		t.Fatal(err)
	}
	for crash := 1; crash < windows; crash++ {
		opts := base
		opts.CheckpointPath = filepath.Join(t.TempDir(), "run.ckpt")
		opts.CheckpointEvery = 1
		if _, err := e.RunStream(arrivals, opts, crashAfter(crash)); !errors.Is(err, errCrash) {
			t.Fatalf("crash %d: err = %v", crash, err)
		}
		got, err := e.ResumeStream(opts.CheckpointPath, arrivals, opts, nil)
		if err != nil {
			t.Fatalf("crash %d: resume: %v", crash, err)
		}
		if csvOf(t, got.Recognition) != wantCSV {
			t.Fatalf("crash after %d windows: resumed CSV differs", crash)
		}
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
