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
	checkpointMagic = "rtec-checkpoint"
	// checkpointVersion 3 records the engine journal position its
	// generation covers (journal_seq); version 2 did not, and version 1
	// listed every emitted window. Older versions are refused, not
	// converted.
	checkpointVersion = 3
)

type checkpointFile struct {
	Magic    string          `json:"magic"`
	Version  int             `json:"version"`
	Checksum string          `json:"checksum"`
	Payload  json.RawMessage `json:"payload"`
}

// checkpointPayload is the snapshot of a streaming run: enough to continue
// ingestion at arrival Consumed and reproduce the uninterrupted run's final
// recognition byte for byte. The windows the watermark has passed
// (slots[:Final]) are there only as their amalgamation — the fold section:
// Fold, Warnings and the inertia carry-over leaving window Final-1; the
// revisable tail slots[Final:Emitted] is kept window by window, and the
// reorder buffer keeps the events that may still be re-evaluated.
type checkpointPayload struct {
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
	// before the write), so the field is omitted there; suspend checkpoints
	// taken mid-cadence record the true count so the resumed run fires its
	// next cadence checkpoint at the same absolute window as an
	// uninterrupted one.
	SinceCkpt int `json:"since_ckpt,omitempty"`
	// JournalSeq is the sequence number of the last engine journal record
	// the generation covers: a cadence checkpoint's own checkpoint record,
	// the last record before a suspend checkpoint. A resume cuts the
	// journal back to it.
	JournalSeq int64 `json:"journal_seq"`

	Frontier int64        `json:"frontier"`
	Started  bool         `json:"started"`
	Disorder ckptDisorder `json:"disorder"`
	Buffered []ckptEvent  `json:"buffered"`

	// Final is the revision cursor; Fold, Warnings and Carry are the fold
	// section (see streamRun.fold): the amalgamated FVPs sorted by key, the
	// warnings in first-occurrence order, and the open FVPs window Final-1
	// carries into window Final.
	Final    int       `json:"final"`
	Fold     []ckptFVP `json:"fold"`
	Warnings []Warning `json:"warnings,omitempty"`
	Carry    []ckptFVP `json:"carry"`
	// Slots are the revisable windows, slots[Final:Emitted].
	Slots []ckptSlot `json:"slots"`
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
	Warnings   []Warning `json:"warnings,omitempty"`
	// Marks are the slot's pending marks (see streamRun.mark). A cadence
	// checkpoint always follows an emission, which flushes them, so only a
	// suspend checkpoint can carry any.
	Marks []int64 `json:"marks,omitempty"`
}

func fvpToCkpt(fvp *lang.Term, ivals intervals.List) ckptFVP {
	out := ckptFVP{Fluent: fvp.Args[0].String(), Value: fvp.Args[1].String()}
	if len(ivals) > 0 {
		out.Ivals = make([][2]int64, len(ivals))
		for i, iv := range ivals {
			out.Ivals[i] = [2]int64{iv.Start, iv.End}
		}
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

// fvpsToCkpt captures an FVP map sorted by key, so identical states
// serialise identically; lists may be nil (an inertia carry-over).
func fvpsToCkpt(fvps map[string]*lang.Term, lists map[string]intervals.List) []ckptFVP {
	keys := make([]string, 0, len(fvps))
	for k := range fvps {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]ckptFVP, len(keys))
	for i, k := range keys {
		out[i] = fvpToCkpt(fvps[k], lists[k])
	}
	return out
}

// fvpsFromCkpt restores what fvpsToCkpt captured: the FVP terms by key and,
// when lists is non-nil, their intervals into it.
func fvpsFromCkpt(cs []ckptFVP, lists map[string]intervals.List) (map[string]*lang.Term, error) {
	fvps := make(map[string]*lang.Term, len(cs))
	for _, cf := range cs {
		fvp, list, err := fvpFromCkpt(cf)
		if err != nil {
			return nil, err
		}
		key := fvpKey(fvp)
		fvps[key] = fvp
		if lists != nil {
			lists[key] = list
		}
	}
	return fvps, nil
}

// snapshot captures the run state: the header, the reorder buffer, the fold
// section and the revisable tail.
func (st *streamRun) snapshot() checkpointPayload {
	frontier, started := st.reorder.Frontier()
	ds := st.reorder.Stats()
	p := checkpointPayload{
		EDSum:  st.eng.edFingerprint(),
		Window: st.tl.window, Slide: st.tl.slide,
		Start: st.tl.start, End: st.tl.end,
		MaxDelay:    st.opts.MaxDelay,
		Consumed:    st.consumed,
		Emitted:     st.emitted,
		Revisions:   st.stats.Revisions,
		Checkpoints: st.stats.Checkpoints,
		SinceCkpt:   st.sinceCkpt,
		JournalSeq:  st.journalSeq,
		Frontier:    frontier,
		Started:     started,
		Disorder: ckptDisorder{
			Observed: ds.Observed, Accepted: ds.Accepted,
			Late: ds.Late, Duplicates: ds.Duplicates, Dropped: ds.Dropped,
		},
		Final:    st.final,
		Fold:     fvpsToCkpt(st.fold.fvps, st.fold.byKey),
		Warnings: st.fold.warnings,
	}
	// The atoms were rendered when the reorder buffer admitted them.
	if buffered := st.reorder.Buffered(); len(buffered) > 0 {
		p.Buffered = make([]ckptEvent, len(buffered))
		for i, e := range buffered {
			p.Buffered[i] = ckptEvent{T: e.Time, Atom: st.reorder.Text(i)}
		}
	}
	if st.final > 0 {
		p.Carry = fvpsToCkpt(st.slots[st.final-1].eval.nextOpen, nil)
	}
	for i := st.final; i < st.emitted; i++ {
		slot := &st.slots[i]
		p.Slots = append(p.Slots, ckptSlot{
			Revision:   slot.revision,
			Recognised: fvpsToCkpt(slot.eval.fvps, slot.eval.recognised),
			NextOpen:   fvpsToCkpt(slot.eval.nextOpen, nil),
			Warnings:   slot.eval.warnings,
			Marks:      slot.marks,
		})
	}
	return p
}

// encodeSnapshot returns the checkpoint file of the current run state: the
// bytes json.Marshal gives for a checkpointFile around the marshalled
// payload, with the envelope written around the payload rather than
// marshalled, which would scan the payload again.
func (st *streamRun) encodeSnapshot() ([]byte, error) {
	payload, err := json.Marshal(st.snapshot())
	if err != nil {
		return nil, err
	}
	h := fnv.New64a()
	h.Write(payload)
	out := fmt.Appendf(make([]byte, 0, len(payload)+96), `{"magic":%q,"version":%d,"checksum":"%016x","payload":`,
		checkpointMagic, checkpointVersion, h.Sum64())
	out = append(out, payload...)
	return append(out, '}'), nil
}

// writeCheckpoint takes a cadence snapshot. The write is counted before
// snapshotting, so the payload's own checkpoint counter includes it: a run
// restored from the snapshot then reports the same count as the
// uninterrupted run at the same point — which keeps resumed journals
// (whose checkpoint records embed the payload size) byte-identical to
// uninterrupted ones.
//
// The snapshot is encoded here, its checkpoint record appended and the
// journal flushed through that record before the file steps start behind
// the consumer (see ckptWriter): a generation never reaches the disk ahead
// of the records it covers. The previous generation's write is waited for
// first, and its error returned, so at most one write is in flight and a
// generation is on disk before the next one is encoded.
func (st *streamRun) writeCheckpoint() error {
	if err := st.writer.wait(); err != nil {
		return err
	}
	tel := st.eng.opts.Telemetry
	jw := st.obs.journal
	st.stats.Checkpoints++
	if jw != nil {
		st.journalSeq = jw.Seq() + 1 // the checkpoint record's own number
	}
	data, err := st.encodeSnapshot()
	if err != nil {
		return fmt.Errorf("rtec: checkpoint: %w", err)
	}
	n := len(data)
	if err := jw.Append("checkpoint", journalCheckpoint{
		Consumed: st.consumed, Windows: st.emitted, Bytes: n,
	}); err != nil {
		return err
	}
	if err := jw.Flush(); err != nil {
		return err
	}
	st.writer.start(st.opts.CheckpointPath, data)
	tel.Counter("rtec.checkpoint.writes").Inc()
	tel.Counter("rtec.checkpoint.bytes").Add(int64(n))
	tel.Logger().Debug("checkpoint written",
		"component", "rtec", "path", st.opts.CheckpointPath,
		"consumed", st.consumed, "windows", st.emitted, "bytes", n)
	return nil
}

// writeSuspendCheckpoint snapshots the run for a graceful suspension
// (signal-triggered drain). Unlike a cadence checkpoint it does NOT bump
// the checkpoint counter and does NOT journal a record: a suspend may land
// between any two arrivals, and the resumed run must report the same
// checkpoint count and journal bytes as an uninterrupted one. It waits for
// the cadence write in flight and flushes the journal, then writes on the
// calling goroutine, so the suspend generation is on disk when it returns.
func (st *streamRun) writeSuspendCheckpoint() error {
	if st.opts.CheckpointPath == "" {
		return fmt.Errorf("rtec: cannot suspend: no checkpoint path configured")
	}
	if err := st.writer.wait(); err != nil {
		return err
	}
	jw := st.obs.journal
	if err := jw.Flush(); err != nil {
		return err
	}
	st.journalSeq = jw.Seq()
	data, err := st.encodeSnapshot()
	if err != nil {
		return fmt.Errorf("rtec: checkpoint: %w", err)
	}
	if err := writeGeneration(st.opts.CheckpointPath, data); err != nil {
		return err
	}
	st.eng.opts.Telemetry.Logger().Debug("suspend checkpoint written",
		"component", "rtec", "path", st.opts.CheckpointPath,
		"consumed", st.consumed, "windows", st.emitted)
	return nil
}

// ckptWriter runs the file steps of a runner's cadence checkpoints behind
// the consumer: each generation is written on a goroutine of its own, at
// most one at a time, while the consumer evaluates the next windows. The
// runner waits for the write in flight before the next cadence write,
// before a suspend checkpoint, at Finish and at Abort; a write error is
// returned at the first of these. Each write owns the bytes handed to it.
type ckptWriter struct {
	done     chan error // the result of the write in flight; reused
	inFlight bool
}

// start writes data to path behind the caller. A write must not be in
// flight.
func (w *ckptWriter) start(path string, data []byte) {
	if w.done == nil {
		w.done = make(chan error, 1)
	}
	w.inFlight = true
	done := w.done
	go func() { done <- writeGeneration(path, data) }()
}

// wait returns once no write is in flight, with the error of the write it
// waited for, if any.
func (w *ckptWriter) wait() error {
	if !w.inFlight {
		return nil
	}
	w.inFlight = false
	return <-w.done
}

// writeGeneration replaces the checkpoint at path torn-proof: the bytes go
// to "<path>.tmp" and are fsynced, the file is renamed over path — which
// rename(2) does atomically — and the directory is synced so the rename
// survives a power cut. A kill at any point leaves path holding the old
// generation or the new one, and at most a stale temporary file that the
// next write truncates: at most one write per path is in flight.
func writeGeneration(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("rtec: checkpoint: %w", err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("rtec: checkpoint: %w", err)
	}
	// Best-effort directory sync so the rename is durable; some
	// filesystems refuse fsync on directories, which is fine.
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// Checkpoint is a loaded, checksum-verified snapshot of a streaming run.
type Checkpoint struct {
	// Consumed is the number of arrivals the run had fully processed.
	Consumed int
	// Windows is the number of windows delivered at least once.
	Windows int
	// JournalSeq is the sequence number of the last engine journal record
	// the snapshot covers (0 for a run without a journal).
	JournalSeq int64
	payload    checkpointPayload
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
		return nil, fmt.Errorf("rtec: checkpoint %s: format version %d, this build reads only version %d: start the run afresh", path, f.Version, checkpointVersion)
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
	return &Checkpoint{Consumed: p.Consumed, Windows: p.Emitted, JournalSeq: p.JournalSeq, payload: p}, nil
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
	if p.Consumed < 0 || p.Final < 0 || p.Final > p.Emitted || len(p.Slots) != p.Emitted-p.Final {
		return fmt.Errorf("rtec: checkpoint is inconsistent: consumed=%d, %d windows emitted, %d final, but %d slots recorded", p.Consumed, p.Emitted, p.Final, len(p.Slots))
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

	fvps, err := fvpsFromCkpt(p.Fold, st.fold.byKey)
	if err != nil {
		return err
	}
	st.fold.fvps = fvps
	st.fold.addWarnings(p.Warnings)
	if p.Final > 0 {
		carry, err := fvpsFromCkpt(p.Carry, nil)
		if err != nil {
			return err
		}
		st.slots[p.Final-1].eval.nextOpen = carry
	}
	for j, cs := range p.Slots {
		ev := windowEval{recognised: map[string]intervals.List{}, warnings: cs.Warnings}
		if ev.fvps, err = fvpsFromCkpt(cs.Recognised, ev.recognised); err != nil {
			return err
		}
		if ev.nextOpen, err = fvpsFromCkpt(cs.NextOpen, nil); err != nil {
			return err
		}
		st.slots[p.Final+j] = windowSlot{revision: cs.Revision, eval: ev, marks: cs.Marks}
	}
	st.final = p.Final
	st.emitted = p.Emitted
	st.consumed = p.Consumed
	st.stats.Revisions = p.Revisions
	st.stats.Checkpoints = p.Checkpoints
	st.sinceCkpt = p.SinceCkpt
	st.journalSeq = p.JournalSeq
	return nil
}
