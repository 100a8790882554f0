package shard

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtecgen/internal/rtec"
	"rtecgen/internal/stream"
	"rtecgen/internal/telemetry"
	"rtecgen/internal/telemetry/journal"
)

// fileRun drives one supervisor whose checkpoints and journals live in dir,
// so a second supervisor can resume from them the way a restarted rtecd
// process does.
type fileRun struct {
	t   *testing.T
	dir string
	sup *Supervisor
	jfs []*os.File
}

// newFileRun starts a supervisor over dir checkpointing every `every`
// windows; crashes act out through its observer.
func newFileRun(t *testing.T, dir string, arrivals stream.Stream, resume bool, every int, crashes []crash) *fileRun {
	t.Helper()
	r, err := openFileRun(t, dir, arrivals, resume, every, crashes)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// openFileRun is newFileRun returning NewSupervisor's error, with the
// journal files closed again.
func openFileRun(t *testing.T, dir string, arrivals stream.Stream, resume bool, every int, crashes []crash) (*fileRun, error) {
	t.Helper()
	first, last := arrivals.TimeRange()
	r := &fileRun{t: t, dir: dir}
	jfs := make([]*os.File, 4)
	infos := make([]*journal.RecoverInfo, 4)
	for k := range jfs {
		path := filepath.Join(dir, fmt.Sprintf("run.journal.s%d", k))
		if resume {
			if _, statErr := os.Stat(path); statErr == nil {
				info, err := journal.Recover(path)
				if err != nil {
					t.Fatal(err)
				}
				infos[k] = &info
				f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				jfs[k] = f
				continue
			}
		}
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		jfs[k] = f
	}
	r.jfs = jfs
	opts := Options{
		Shards: 4,
		Stream: rtec.StreamOptions{
			RunOptions:      rtec.RunOptions{Window: 100, Start: first, End: last + 1},
			MaxDelay:        60,
			CheckpointPath:  filepath.Join(dir, "run.ckpt"),
			CheckpointEvery: every,
		},
		JournalFor:     func(k int) io.Writer { return jfs[k] },
		JournalInfoFor: func(k int) *journal.RecoverInfo { return infos[k] },
		Resume:         resume,
		Seed:           7,
		MaxRestarts:    8,
		Telemetry:      telemetry.New(telemetry.NewRegistry(), nil, nil),
	}
	if crashes != nil {
		opts.OnWindow = crashObserver(opts, crashes)
	}
	sup, err := NewSupervisor(testEngine(t, 1), opts)
	if err != nil {
		r.closeFiles()
		return nil, err
	}
	r.sup = sup
	return r, nil
}

func (r *fileRun) ingest(arrivals stream.Stream) {
	r.t.Helper()
	for _, e := range arrivals {
		if err := r.sup.Ingest(e); err != nil {
			r.t.Fatal(err)
		}
	}
}

func (r *fileRun) closeFiles() {
	for _, f := range r.jfs {
		f.Close()
	}
}

func (r *fileRun) journalBytes(k int) []byte {
	r.t.Helper()
	b, err := os.ReadFile(filepath.Join(r.dir, fmt.Sprintf("run.journal.s%d", k)))
	if err != nil {
		r.t.Fatal(err)
	}
	return b
}

// suspendResumeIdentity parks a run checkpointing every `every` windows
// after `park` arrivals, resumes it in a fresh supervisor over the same
// directory, and asserts the final CSV, stats and per-shard journal bytes
// match an uninterrupted run's. The crashes act out in the pre-park phase
// only — a resumed run must also erase the scars of crashes that happened
// before the park.
func suspendResumeIdentity(t *testing.T, park, every int, crashes []crash) {
	arrivals := testArrivals(7, 160, 60)

	baseline := newFileRun(t, t.TempDir(), arrivals, false, every, nil)
	baseline.ingest(arrivals)
	wantRes, err := baseline.sup.Close()
	if err != nil {
		t.Fatal(err)
	}
	baseline.closeFiles()
	wantCSV := csvOf(t, wantRes.Recognition)

	dir := t.TempDir()
	parked := newFileRun(t, dir, arrivals, false, every, crashes)
	parked.ingest(arrivals[:park])
	sts, err := parked.sup.Suspend()
	if err != nil {
		t.Fatalf("suspend: %v", err)
	}
	parked.closeFiles()
	var consumed int64
	for _, st := range sts {
		if !st.Suspended || st.Degraded {
			t.Fatalf("shard %d did not park cleanly: %+v", st.Shard, st)
		}
		consumed += st.Consumed
	}
	if consumed != int64(park) {
		t.Fatalf("parked %d arrivals, want %d", consumed, park)
	}

	resumed := newFileRun(t, dir, arrivals, true, every, nil)
	resumed.ingest(arrivals) // full stream: the parked prefix is skipped
	gotRes, err := resumed.sup.Close()
	if err != nil {
		t.Fatal(err)
	}
	resumed.closeFiles()
	if gotCSV := csvOf(t, gotRes.Recognition); gotCSV != wantCSV {
		t.Fatalf("park@%d: resumed CSV differs from uninterrupted run:\n%s\nvs\n%s", park, gotCSV, wantCSV)
	}
	if wantRes.Stats != gotRes.Stats {
		t.Fatalf("park@%d: resumed stats = %+v, uninterrupted = %+v", park, gotRes.Stats, wantRes.Stats)
	}
	for k := 0; k < 4; k++ {
		if !bytes.Equal(baseline.journalBytes(k), resumed.journalBytes(k)) {
			t.Fatalf("park@%d: shard %d journal differs after suspend-resume:\n%s\nvs\n%s",
				park, k, resumed.journalBytes(k), baseline.journalBytes(k))
		}
	}
}

// everyCadence runs a suspend-resume case at the checkpoint cadences 1 and
// 3: rtecd -checkpoint-every accepts any positive value.
func everyCadence(t *testing.T, park int, crashes []crash) {
	for _, every := range []int{1, 3} {
		t.Run(fmt.Sprintf("every=%d", every), func(t *testing.T) {
			suspendResumeIdentity(t, park, every, crashes)
		})
	}
}

// TestSuspendResumeByteIdentity is the cross-process drain contract: a
// supervisor parked mid-stream and a fresh one resumed over its checkpoint
// and journal files reproduce an uninterrupted run byte-for-byte.
func TestSuspendResumeByteIdentity(t *testing.T) {
	everyCadence(t, 80, nil)
}

// TestSuspendResumeEarlyPark parks after 3 arrivals: most shards have
// consumed nothing and hold no checkpoint, so the resume path must handle
// fresh shards next to restored ones.
func TestSuspendResumeEarlyPark(t *testing.T) {
	everyCadence(t, 3, nil)
}

// TestSuspendResumeAfterFaults panics shard 0 before the park: crash
// recovery and the graceful park must compose without disturbing the
// byte-identity contract.
func TestSuspendResumeAfterFaults(t *testing.T) {
	everyCadence(t, 80, []crash{{window: 1, shard: 0}})
}

// TestResumeRefusesTornSuspendCheckpoint: the journal was committed through
// the suspend point, so a resume from the previous checkpoint generation
// would journal the replayed windows twice. A suspend checkpoint that is
// torn, or missing beside its ".prev", fails the resume naming the file.
func TestResumeRefusesTornSuspendCheckpoint(t *testing.T) {
	arrivals := testArrivals(7, 160, 60)
	for _, tc := range []struct {
		name   string
		damage func(path string)
	}{
		{"torn", tearFile},
		{"missing", func(path string) { os.Remove(path) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			parked := newFileRun(t, dir, arrivals, false, 3, nil)
			parked.ingest(arrivals[:80])
			if _, err := parked.sup.Suspend(); err != nil {
				t.Fatalf("suspend: %v", err)
			}
			parked.closeFiles()
			path := filepath.Join(dir, "run.ckpt.s0")
			if _, err := os.Stat(path + ".prev"); err != nil {
				t.Fatalf("shard 0 kept no previous generation to fall back to: %v", err)
			}
			tc.damage(path)
			r, err := openFileRun(t, dir, arrivals, true, 3, nil)
			if err == nil {
				r.sup.Close()
				r.closeFiles()
				t.Fatal("resume from an unusable suspend checkpoint succeeded")
			}
			if !strings.Contains(err.Error(), path) {
				t.Fatalf("resume error does not name %s: %v", path, err)
			}
		})
	}
}

func TestSuspendRequiresCheckpointPath(t *testing.T) {
	arrivals := testArrivals(7, 40, 60)
	first, last := arrivals.TimeRange()
	sup, err := NewSupervisor(testEngine(t, 1), Options{
		Shards: 2,
		Stream: rtec.StreamOptions{
			RunOptions: rtec.RunOptions{Window: 100, Start: first, End: last + 1},
			MaxDelay:   60,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sup.Suspend(); err == nil {
		t.Fatal("Suspend without a checkpoint path succeeded")
	}
	// The configuration error leaves the runtime usable: Close still works.
	if _, err := sup.Close(); err != nil {
		t.Fatalf("Close after the refused Suspend: %v", err)
	}
}

func TestResumeRequiresCheckpointPath(t *testing.T) {
	_, err := NewSupervisor(testEngine(t, 1), Options{
		Shards: 2,
		Stream: rtec.StreamOptions{RunOptions: rtec.RunOptions{Window: 100, Start: 0, End: 100}},
		Resume: true,
	})
	if err == nil {
		t.Fatal("Resume without a checkpoint path accepted")
	}
}
