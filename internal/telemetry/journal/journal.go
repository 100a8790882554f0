// Package journal is the structured recognition audit log: an append-only,
// size-capped JSONL file in which a streaming run records what it decided
// and why — window evaluations, interval assertions and retractions from
// late-event revisions, checkpoint writes and restores, and admission
// verdicts on late or dropped arrivals.
//
// Every record carries a monotonically increasing sequence number and a
// timestamp read from an injectable clock. With the default deterministic
// clock (a fixed epoch), two same-seed runs produce byte-identical
// journals, so a journal can be golden-pinned and diffed like any other
// engine output; a real clock is opt-in for production runs where wall
// times matter more than reproducibility.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Record is one journal line. Data holds the type-specific payload as it
// was marshalled by the writer (struct field order, hence byte layout, is
// fixed by the payload type's declaration order).
type Record struct {
	// Seq is the 1-based monotonic sequence number of the record.
	Seq int64 `json:"seq"`
	// WallUS is the clock reading in microseconds since the Unix epoch; 0
	// under the deterministic default clock.
	WallUS int64 `json:"wall_us"`
	// Type names the record kind ("run_start", "window", "checkpoint",
	// "admission", "run_end", "journal_capped", ...).
	Type string `json:"type"`
	// Data is the type-specific payload.
	Data json.RawMessage `json:"data,omitempty"`
}

// Options configure a Writer.
type Options struct {
	// MaxBytes caps the journal size: once appending a record would push
	// the file past the cap, one final "journal_capped" marker is written
	// and every later record is counted and dropped. Zero means no cap.
	MaxBytes int64
	// Now is the injectable clock stamping WallUS. Nil uses the
	// deterministic default: a fixed reading of the Unix epoch, so
	// same-seed runs journal byte-identically.
	Now func() time.Time
}

// cappedData is the payload of the final marker record of a capped journal.
type cappedData struct {
	MaxBytes int64 `json:"max_bytes"`
}

// Writer appends records to an underlying stream. Safe for concurrent use;
// a nil *Writer is a no-op, so instrumented paths thread an optional
// journal without branching.
type Writer struct {
	mu      sync.Mutex
	w       io.Writer
	opts    Options
	seq     int64
	written int64
	capped  bool
	dropped int64
	err     error
}

// NewWriter wraps w. The caller owns w's lifetime (closing files, etc.).
func NewWriter(w io.Writer, opts Options) *Writer {
	return &Writer{w: w, opts: opts}
}

// Append marshals data and writes one record. Once an underlying write has
// failed, every later Append returns the same error without writing (a
// journal with a hole would validate as corrupt anyway). Appends beyond
// the size cap are silently counted; see Dropped.
func (w *Writer) Append(typ string, data any) error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.capped {
		w.dropped++
		return nil
	}
	payload, err := json.Marshal(data)
	if err != nil {
		return fmt.Errorf("journal: %s record: %w", typ, err)
	}
	line, err := w.encode(typ, payload)
	if err != nil {
		return err
	}
	if w.opts.MaxBytes > 0 && w.written+int64(len(line)) > w.opts.MaxBytes {
		// Replace the record with the cap marker: the journal ends with an
		// explicit truncation notice instead of silently going quiet. The
		// marker itself may exceed the cap by its own length; the cap is a
		// guard against unbounded growth, not an exact quota.
		w.capped = true
		w.dropped++
		marker, err := json.Marshal(cappedData{MaxBytes: w.opts.MaxBytes})
		if err != nil {
			return err
		}
		w.seq-- // the dropped record's number goes to the marker instead
		line, err = w.encode("journal_capped", marker)
		if err != nil {
			return err
		}
	}
	if _, err := w.w.Write(line); err != nil {
		w.err = fmt.Errorf("journal: %w", err)
		return w.err
	}
	w.written += int64(len(line))
	return nil
}

// encode builds one serialised record line, consuming a sequence number.
// Callers hold w.mu.
func (w *Writer) encode(typ string, payload json.RawMessage) ([]byte, error) {
	w.seq++
	var wall int64
	if w.opts.Now != nil {
		wall = w.opts.Now().UnixMicro()
	}
	line, err := json.Marshal(Record{Seq: w.seq, WallUS: wall, Type: typ, Data: payload})
	if err != nil {
		return nil, fmt.Errorf("journal: %s record: %w", typ, err)
	}
	return append(line, '\n'), nil
}

// Mark is a point in a writer's sequencing state, captured by (*Writer).Mark
// and restored by Rollback. The shard runtime journals speculatively into an
// in-memory stage and, when a crashed shard replays from its checkpoint,
// rolls the writer back to the mark taken at that checkpoint so the replayed
// records reuse the same sequence numbers — keeping the recovered journal
// byte-identical to a fault-free run. Mark/Rollback only restore the
// writer's own counters; rewinding the underlying byte sink (truncating the
// staged buffer) is the caller's job.
type Mark struct {
	seq, written, dropped int64
	capped                bool
}

// Mark captures the writer's current sequencing state.
func (w *Writer) Mark() Mark {
	if w == nil {
		return Mark{}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return Mark{seq: w.seq, written: w.written, dropped: w.dropped, capped: w.capped}
}

// Rollback restores the state captured by a Mark. A sticky write error is
// not cleared: a journal with a hole stays failed.
func (w *Writer) Rollback(m Mark) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.seq, w.written, w.dropped, w.capped = m.seq, m.written, m.dropped, m.capped
}

// Seq returns the sequence number of the last record issued (0 initially).
func (w *Writer) Seq() int64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Dropped returns how many records were discarded past the size cap.
func (w *Writer) Dropped() int64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.dropped
}

// Capped reports whether the size cap has been hit.
func (w *Writer) Capped() bool {
	if w == nil {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.capped
}

// Stats summarises a validated journal.
type Stats struct {
	// Records is the number of well-formed records read.
	Records int
	// Types counts records per type.
	Types map[string]int
	// Capped reports whether the journal ends in a journal_capped marker.
	Capped bool
}

// Read parses a journal stream into records, applying the same structural
// checks as Validate.
func Read(r io.Reader) ([]Record, error) {
	var out []Record
	err := scan(r, func(rec Record) error {
		out = append(out, rec)
		return nil
	})
	return out, err
}

// Validate checks a journal stream: every line must be a well-formed
// record, sequence numbers must increase by exactly one from 1 (append-only
// with no holes or duplicates), timestamps must be non-decreasing (clock
// sanity — the injectable clock never runs backwards), and no record may
// follow the journal_capped marker.
func Validate(r io.Reader) (Stats, error) {
	stats := Stats{Types: map[string]int{}}
	err := scan(r, func(rec Record) error {
		stats.Records++
		stats.Types[rec.Type]++
		if rec.Type == "journal_capped" {
			stats.Capped = true
		}
		return nil
	})
	return stats, err
}

// scan drives the line-by-line structural validation shared by Read and
// Validate.
func scan(r io.Reader, fn func(Record) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	line := 0
	var prev Record
	for sc.Scan() {
		line++
		rec, err := checkLine(line, sc.Bytes(), prev)
		if err != nil {
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
		prev = rec
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if line == 0 {
		return fmt.Errorf("journal: no records")
	}
	return nil
}

// RecoverInfo describes what Recover found and kept.
type RecoverInfo struct {
	// Records is the number of complete records kept.
	Records int
	// LastSeq is the sequence number of the last kept record (0 if none).
	LastSeq int64
	// Written is the file size in bytes after recovery.
	Written int64
	// Truncated is how many trailing bytes of a torn record were cut.
	Truncated int64
	// Capped reports whether the kept journal ends in a journal_capped
	// marker, so a resumed writer keeps dropping instead of re-appending.
	Capped bool
}

// Recover makes a journal file left behind by a crashed run appendable
// again. A crash can tear the final record mid-write; Recover validates the
// file with the same structural checks as Validate, truncates a trailing
// partial line (one that is unterminated, or whose bytes fail validation
// with nothing after it), and refuses anything worse: a bad record followed
// by complete ones is mid-file corruption, not a torn tail.
func Recover(path string) (RecoverInfo, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return RecoverInfo{}, err
	}
	var info RecoverInfo
	off, line := 0, 0
	var prev Record
	for off < len(raw) {
		nl := bytes.IndexByte(raw[off:], '\n')
		seg := raw[off:]
		torn := nl < 0 // the write was cut before the line terminator
		if !torn {
			seg = raw[off : off+nl]
		}
		line++
		rec, cerr := checkLine(line, seg, prev)
		if torn || cerr != nil {
			if !torn && off+nl+1 < len(raw) {
				return RecoverInfo{}, cerr
			}
			// A complete-looking record without its newline is still partial
			// by JSONL discipline — cut it with the rest of the tail.
			info.Truncated = int64(len(raw) - off)
			if err := os.Truncate(path, int64(off)); err != nil {
				return RecoverInfo{}, fmt.Errorf("journal: truncate: %w", err)
			}
			break
		}
		info.Records++
		info.LastSeq = rec.Seq
		if rec.Type == "journal_capped" {
			info.Capped = true
		}
		prev = rec
		off += nl + 1
	}
	info.Written = int64(off)
	return info, nil
}

// NewWriterResumed wraps w like NewWriter but continues a recovered
// journal: the next record takes sequence info.LastSeq+1, the size cap
// accounts for the bytes already on disk, and a journal recovered past its
// cap marker stays capped. Runs that stamped wall-clock times must resume
// with a wall clock too, or validation's monotonicity check will fail at
// the resume boundary.
func NewWriterResumed(w io.Writer, opts Options, info RecoverInfo) *Writer {
	return &Writer{w: w, opts: opts, seq: info.LastSeq, written: info.Written, capped: info.Capped}
}

// Open opens the journal file at path and a Writer over it. With resume set
// and the file present, the crashed run's journal is continued: Recover
// validates it and truncates a torn trailing line, the file is reopened for
// append and the writer carries on its sequence — after a journal_recovered
// marker when marker is set (shard journals take none: their appended suffix
// must keep the file byte-identical to an uninterrupted run's). Otherwise
// the file is created afresh and info is nil. The caller closes the file.
func Open(path string, opts Options, resume, marker bool) (*os.File, *Writer, *RecoverInfo, error) {
	if _, err := os.Stat(path); !resume || err != nil {
		f, err := os.Create(path)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("journal: %w", err)
		}
		return f, NewWriter(f, opts), nil, nil
	}
	info, err := Recover(path)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("journal %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("journal: %w", err)
	}
	w := NewWriterResumed(f, opts, info)
	if marker {
		if err := w.Append("journal_recovered", map[string]int64{
			"records":         int64(info.Records),
			"last_seq":        info.LastSeq,
			"truncated_bytes": info.Truncated,
		}); err != nil {
			f.Close()
			return nil, nil, nil, fmt.Errorf("journal: %w", err)
		}
	}
	return f, w, &info, nil
}

// checkLine applies the structural checks to one raw journal line given the
// previous accepted record.
func checkLine(line int, raw []byte, prev Record) (Record, error) {
	if len(raw) == 0 {
		return Record{}, fmt.Errorf("journal: line %d: empty line", line)
	}
	var rec Record
	if err := json.Unmarshal(raw, &rec); err != nil {
		return Record{}, fmt.Errorf("journal: line %d: malformed record: %w", line, err)
	}
	if rec.Type == "" {
		return Record{}, fmt.Errorf("journal: line %d: record without type", line)
	}
	if rec.Seq != prev.Seq+1 {
		return Record{}, fmt.Errorf("journal: line %d: sequence %d after %d, want %d", line, rec.Seq, prev.Seq, prev.Seq+1)
	}
	if rec.WallUS < prev.WallUS {
		return Record{}, fmt.Errorf("journal: line %d: clock ran backwards (%d after %d)", line, rec.WallUS, prev.WallUS)
	}
	if prev.Type == "journal_capped" {
		return Record{}, fmt.Errorf("journal: line %d: record after the journal_capped marker", line)
	}
	return rec, nil
}
