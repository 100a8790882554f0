package rtec

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"

	"rtecgen/internal/intervals"
	"rtecgen/internal/lang"
	"rtecgen/internal/parser"
	"rtecgen/internal/stream"
)

// Checkpoint file layout: a small JSON envelope carrying a magic string, a
// format version and an fnv-64a checksum of the raw payload bytes, so a
// truncated or corrupted snapshot is rejected before any state is restored.
const (
	checkpointMagic   = "rtec-checkpoint"
	checkpointVersion = 1

	// checkpointPrevSuffix names the previous snapshot generation: every
	// successful checkpoint write first rotates the current file aside, so
	// a snapshot torn by a crash or a bad disk still leaves one verified
	// generation to resume from.
	checkpointPrevSuffix = ".prev"
)

type checkpointFile struct {
	Magic    string          `json:"magic"`
	Version  int             `json:"version"`
	Checksum string          `json:"checksum"`
	Payload  json.RawMessage `json:"payload"`
}

// checkpointPayload is the snapshot of a streaming run: enough to continue
// ingestion at arrival Consumed and reproduce the uninterrupted run's final
// recognition byte for byte. Frozen windows (those the watermark has passed)
// contribute only their delivered recognition; the revisable tail keeps its
// inertia carry-over and the reorder buffer keeps the events that may still
// be re-evaluated.
type checkpointPayload struct {
	checkpointHeader
	Slots []ckptSlot `json:"slots"`
}

// checkpointHeader is every field of the payload ahead of the slots: the part
// a write encodes afresh each time. The slots follow it in the file, encoded
// one by one (see encodeSnapshot).
type checkpointHeader struct {
	EDSum    string `json:"ed_sum"`
	Window   int64  `json:"window"`
	Slide    int64  `json:"slide"`
	Start    int64  `json:"start"`
	End      int64  `json:"end"`
	MaxDelay int64  `json:"max_delay"`

	Consumed    int   `json:"consumed"`
	Emitted     int   `json:"emitted"`
	Revisions   int64 `json:"revisions"`
	Checkpoints int64 `json:"checkpoints"`
	// SinceCkpt is the number of windows emitted since the last cadence
	// checkpoint. Cadence snapshots always record 0 (the counter is reset
	// before the write), so the field is omitted there and the on-disk bytes
	// are unchanged; suspend checkpoints taken mid-cadence record the true
	// count so the resumed run fires its next cadence checkpoint at the same
	// absolute window as an uninterrupted one.
	SinceCkpt int `json:"since_ckpt,omitempty"`

	Frontier int64        `json:"frontier"`
	Started  bool         `json:"started"`
	Disorder ckptDisorder `json:"disorder"`
	Buffered []ckptEvent  `json:"buffered"`
}

type ckptDisorder struct {
	Observed   int64 `json:"observed"`
	Accepted   int64 `json:"accepted"`
	Late       int64 `json:"late"`
	Duplicates int64 `json:"duplicates"`
	Dropped    int64 `json:"dropped"`
}

type ckptEvent struct {
	T    int64  `json:"t"`
	Atom string `json:"a"`
}

// ckptFVP serialises one recognised fluent-value pair: the fluent and value
// terms in concrete syntax (round-tripped through the parser on restore)
// and the clipped maximal intervals as [start, end) pairs.
type ckptFVP struct {
	Fluent string     `json:"f"`
	Value  string     `json:"v"`
	Ivals  [][2]int64 `json:"i,omitempty"`
}

type ckptSlot struct {
	Revision   int       `json:"rev"`
	Recognised []ckptFVP `json:"recognised"`
	NextOpen   []ckptFVP `json:"next_open"`
	// Marks are the slot's pending marks (see streamRun.mark). A cadence
	// checkpoint always follows an emission, which flushes them, so only a
	// suspend checkpoint can carry any.
	Marks []int64 `json:"marks,omitempty"`
}

func fvpToCkpt(fvp *lang.Term, ivals intervals.List) ckptFVP {
	out := ckptFVP{Fluent: fvp.Args[0].String(), Value: fvp.Args[1].String()}
	for _, iv := range ivals {
		out.Ivals = append(out.Ivals, [2]int64{iv.Start, iv.End})
	}
	return out
}

func fvpFromCkpt(c ckptFVP) (*lang.Term, intervals.List, error) {
	f, err := parser.ParseTerm(c.Fluent)
	if err != nil {
		return nil, nil, fmt.Errorf("rtec: checkpoint fluent term %q: %w", c.Fluent, err)
	}
	v, err := parser.ParseTerm(c.Value)
	if err != nil {
		return nil, nil, fmt.Errorf("rtec: checkpoint value term %q: %w", c.Value, err)
	}
	var list intervals.List
	for _, p := range c.Ivals {
		list = append(list, intervals.Interval{Start: p[0], End: p[1]})
	}
	return lang.FVP(f, v), list, nil
}

// header captures the run state outside the slots.
func (st *streamRun) header() checkpointHeader {
	frontier, started := st.reorder.Frontier()
	ds := st.reorder.Stats()
	h := checkpointHeader{
		EDSum:  st.eng.edFingerprint(),
		Window: st.tl.window, Slide: st.tl.slide,
		Start: st.tl.start, End: st.tl.end,
		MaxDelay:    st.opts.MaxDelay,
		Consumed:    st.consumed,
		Emitted:     st.emitted,
		Revisions:   st.stats.Revisions,
		Checkpoints: st.stats.Checkpoints,
		SinceCkpt:   st.sinceCkpt,
		Frontier:    frontier,
		Started:     started,
		Disorder: ckptDisorder{
			Observed: ds.Observed, Accepted: ds.Accepted,
			Late: ds.Late, Duplicates: ds.Duplicates, Dropped: ds.Dropped,
		},
	}
	// The atoms were rendered when the reorder buffer admitted them.
	for i, e := range st.reorder.Buffered() {
		h.Buffered = append(h.Buffered, ckptEvent{T: e.Time, Atom: st.reorder.Text(i)})
	}
	return h
}

// snapshotSlot captures one emitted slot with deterministic ordering (FVPs
// sorted by key), so identical states serialise identically.
func snapshotSlot(slot *windowSlot) ckptSlot {
	cs := ckptSlot{Revision: slot.revision, Marks: slot.marks}
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
	return cs
}

// appendSlot appends slot i as it stands in the payload's "slots" array: the
// array's opening bracket before the first slot, a comma before every other,
// then the slot's JSON.
func (st *streamRun) appendSlot(dst []byte, i int) ([]byte, error) {
	enc, err := json.Marshal(snapshotSlot(&st.slots[i]))
	if err != nil {
		return dst, err
	}
	if i == 0 {
		dst = append(dst, '[')
	} else {
		dst = append(dst, ',')
	}
	return append(dst, enc...), nil
}

// encodeSnapshot returns the checkpoint envelope of the current run state as
// the byte runs that make it up, in file order. The bytes are those
// json.Marshal gives for a checkpointFile around the whole checkpointPayload,
// at the cost of what changed since the previous call:
// slots[:final] can never be touched again (see streamRun.final), so each is
// encoded once, into st.frozen, when the cursor has passed it; the header, the
// reorder buffer and the revisable tail slots[final:emitted] are encoded per
// call. The checksum is taken over the payload's runs in order, so the
// payload is never assembled in one piece.
func (st *streamRun) encodeSnapshot() ([][]byte, error) {
	var err error
	for ; st.frozenN < st.final; st.frozenN++ {
		if st.frozen, err = st.appendSlot(st.frozen, st.frozenN); err != nil {
			return nil, err
		}
	}
	head, err := json.Marshal(st.header())
	if err != nil {
		return nil, err
	}
	head = append(head[:len(head)-1], `,"slots":`...) // reopen the object
	var tail []byte
	for i := st.final; i < st.emitted; i++ {
		if tail, err = st.appendSlot(tail, i); err != nil {
			return nil, err
		}
	}
	if st.emitted == 0 {
		tail = append(tail, "null}"...) // a nil slice, as json.Marshal prints it
	} else {
		tail = append(tail, "]}"...)
	}
	h := fnv.New64a()
	h.Write(head)
	h.Write(st.frozen)
	h.Write(tail)
	tail = append(tail, '}') // closes the envelope
	envelope := fmt.Appendf(nil, `{"magic":"%s","version":%d,"checksum":"%016x","payload":`,
		checkpointMagic, checkpointVersion, h.Sum64())
	return [][]byte{envelope, head, st.frozen, tail}, nil
}

// writeCheckpoint takes a cadence snapshot. The write is counted before
// snapshotting, so the payload's own checkpoint counter includes it: a run
// restored from the snapshot then reports the same count as the
// uninterrupted run at the same point — which keeps recovered journals
// (whose checkpoint records embed the payload size) byte-identical to
// fault-free ones.
func (st *streamRun) writeCheckpoint() error {
	tel := st.eng.opts.Telemetry
	st.stats.Checkpoints++
	n, err := st.writeSnapshotFile()
	if err != nil {
		return err
	}
	tel.Counter("rtec.checkpoint.writes").Inc()
	tel.Counter("rtec.checkpoint.bytes").Add(int64(n))
	tel.Logger().Debug("checkpoint written",
		"component", "rtec", "path", st.opts.CheckpointPath,
		"consumed", st.consumed, "windows", st.emitted, "bytes", n)
	return st.obs.journal.Append("checkpoint", journalCheckpoint{
		Consumed: st.consumed, Windows: st.emitted, Bytes: n,
	})
}

// writeSuspendCheckpoint snapshots the run for a graceful suspension
// (signal-triggered drain). Unlike a cadence checkpoint it does NOT bump
// the checkpoint counter and does NOT journal a record: a suspend may land
// between any two arrivals, and the resumed run must report the same
// checkpoint count and journal bytes as an uninterrupted one.
func (st *streamRun) writeSuspendCheckpoint() error {
	if st.opts.CheckpointPath == "" {
		return fmt.Errorf("rtec: cannot suspend: no checkpoint path configured")
	}
	if _, err := st.writeSnapshotFile(); err != nil {
		return err
	}
	st.eng.opts.Telemetry.Logger().Debug("suspend checkpoint written",
		"component", "rtec", "path", st.opts.CheckpointPath,
		"consumed", st.consumed, "windows", st.emitted)
	return nil
}

// writeSnapshotFile serialises the snapshot and writes it torn-proof: the
// bytes go to a temporary file in the checkpoint's directory and are fsynced
// before the file is renamed over the target, the previous generation is
// kept aside under checkpointPrevSuffix, and the directory is synced so the
// renames themselves survive a power cut. A crash at any point leaves at
// least one intact, checksum-verified generation. It returns the size of
// the written envelope in bytes.
func (st *streamRun) writeSnapshotFile() (int, error) {
	runs, err := st.encodeSnapshot()
	if err != nil {
		return 0, fmt.Errorf("rtec: checkpoint: %w", err)
	}
	dir := filepath.Dir(st.opts.CheckpointPath)
	tmp, err := os.CreateTemp(dir, ".rtec-checkpoint-*")
	if err != nil {
		return 0, fmt.Errorf("rtec: checkpoint: %w", err)
	}
	n := 0
	for _, run := range runs {
		if _, err := tmp.Write(run); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return 0, fmt.Errorf("rtec: checkpoint: %w", err)
		}
		n += len(run)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("rtec: checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("rtec: checkpoint: %w", err)
	}
	// Rotate the current generation aside before installing the new one:
	// if the new file turns out torn (crash between the renames, bad disk),
	// resume falls back to the previous generation.
	if _, err := os.Stat(st.opts.CheckpointPath); err == nil {
		if err := os.Rename(st.opts.CheckpointPath, st.opts.CheckpointPath+checkpointPrevSuffix); err != nil {
			os.Remove(tmp.Name())
			return 0, fmt.Errorf("rtec: checkpoint: %w", err)
		}
	}
	if err := os.Rename(tmp.Name(), st.opts.CheckpointPath); err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("rtec: checkpoint: %w", err)
	}
	// Best-effort directory sync so the renames are durable; some
	// filesystems refuse fsync on directories, which is fine.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return n, nil
}

// Checkpoint is a loaded, checksum-verified snapshot of a streaming run.
type Checkpoint struct {
	// Consumed is the number of arrivals the run had fully processed.
	Consumed int
	// Windows is the number of windows delivered at least once.
	Windows int
	payload checkpointPayload
}

// LoadCheckpoint reads and verifies a snapshot written by a streaming run
// with StreamOptions.CheckpointPath set: the magic string, format version
// and payload checksum must all match before the payload is decoded.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f checkpointFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("rtec: checkpoint %s: %w", path, err)
	}
	if f.Magic != checkpointMagic {
		return nil, fmt.Errorf("rtec: checkpoint %s: not an RTEC checkpoint", path)
	}
	if f.Version != checkpointVersion {
		return nil, fmt.Errorf("rtec: checkpoint %s: format version %d, want %d", path, f.Version, checkpointVersion)
	}
	h := fnv.New64a()
	h.Write(f.Payload)
	if sum := fmt.Sprintf("%016x", h.Sum64()); sum != f.Checksum {
		return nil, fmt.Errorf("rtec: checkpoint %s: checksum mismatch (have %s, want %s): snapshot is corrupt", path, sum, f.Checksum)
	}
	var p checkpointPayload
	if err := json.Unmarshal(f.Payload, &p); err != nil {
		return nil, fmt.Errorf("rtec: checkpoint %s: payload: %w", path, err)
	}
	return &Checkpoint{Consumed: p.Consumed, Windows: p.Emitted, payload: p}, nil
}

// LoadCheckpointWithFallback loads the snapshot at path; if that file is
// missing, torn or corrupt, it falls back to the previous generation kept
// under checkpointPrevSuffix. It returns the checkpoint and the file it
// actually came from. The error names both generations when neither loads.
func LoadCheckpointWithFallback(path string) (*Checkpoint, string, error) {
	cp, err := LoadCheckpoint(path)
	if err == nil {
		return cp, path, nil
	}
	prev := path + checkpointPrevSuffix
	cpp, perr := LoadCheckpoint(prev)
	if perr == nil {
		return cpp, prev, nil
	}
	return nil, "", fmt.Errorf("rtec: checkpoint %s unusable (%v); previous generation unusable too (%v)", path, err, perr)
}

// restore rebuilds the run state from a verified checkpoint, after
// validating that the engine and the run geometry match the snapshot.
func (st *streamRun) restore(cp *Checkpoint) error {
	p := cp.payload
	if sum := st.eng.edFingerprint(); p.EDSum != sum {
		return fmt.Errorf("rtec: checkpoint was written by a different event description (fingerprint %s, engine has %s)", p.EDSum, sum)
	}
	if p.Window != st.tl.window || p.Slide != st.tl.slide || p.Start != st.tl.start || p.End != st.tl.end {
		return fmt.Errorf("rtec: checkpoint geometry window=%d slide=%d [%d,%d) does not match the run's window=%d slide=%d [%d,%d)",
			p.Window, p.Slide, p.Start, p.End, st.tl.window, st.tl.slide, st.tl.start, st.tl.end)
	}
	if p.MaxDelay != st.opts.MaxDelay {
		return fmt.Errorf("rtec: checkpoint max delay %d does not match the run's %d", p.MaxDelay, st.opts.MaxDelay)
	}
	if p.Emitted > len(st.slots) {
		return fmt.Errorf("rtec: checkpoint has %d windows, the run plans only %d", p.Emitted, len(st.slots))
	}
	if p.Consumed < 0 || p.Emitted < 0 || len(p.Slots) != p.Emitted {
		return fmt.Errorf("rtec: checkpoint is inconsistent: consumed=%d, %d windows emitted but %d slots recorded", p.Consumed, p.Emitted, len(p.Slots))
	}

	buffered := make(stream.Stream, 0, len(p.Buffered))
	for _, ce := range p.Buffered {
		atom, err := parser.ParseTerm(ce.Atom)
		if err != nil {
			return fmt.Errorf("rtec: checkpoint event %q: %w", ce.Atom, err)
		}
		if !atom.IsGround() {
			return fmt.Errorf("rtec: checkpoint event %q is not ground", ce.Atom)
		}
		buffered = append(buffered, stream.Event{Time: ce.T, Atom: atom})
	}
	st.reorder = stream.NewReorderFromState(st.opts.MaxDelay, stream.ReorderState{
		Frontier: p.Frontier,
		Started:  p.Started,
		Buffered: buffered,
		Stats: stream.DisorderStats{
			Observed: p.Disorder.Observed, Accepted: p.Disorder.Accepted,
			Late: p.Disorder.Late, Duplicates: p.Disorder.Duplicates, Dropped: p.Disorder.Dropped,
		},
	})

	for i, cs := range p.Slots {
		ev := windowEval{
			recognised: map[string]intervals.List{},
			fvps:       map[string]*lang.Term{},
			nextOpen:   map[string]*lang.Term{},
		}
		for _, cf := range cs.Recognised {
			fvp, list, err := fvpFromCkpt(cf)
			if err != nil {
				return err
			}
			key := fvpKey(fvp)
			ev.recognised[key] = list
			ev.fvps[key] = fvp
		}
		for _, cf := range cs.NextOpen {
			fvp, _, err := fvpFromCkpt(cf)
			if err != nil {
				return err
			}
			ev.nextOpen[fvpKey(fvp)] = fvp
		}
		st.slots[i] = windowSlot{revision: cs.Revision, eval: ev, marks: cs.Marks}
	}
	st.emitted = p.Emitted
	st.consumed = p.Consumed
	st.stats.Revisions = p.Revisions
	st.stats.Checkpoints = p.Checkpoints
	st.sinceCkpt = p.SinceCkpt
	return nil
}
