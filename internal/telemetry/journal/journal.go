// Package journal is the structured recognition audit log: an append-only,
// size-capped JSONL file in which a streaming run records what it decided
// and why — window evaluations, interval assertions and retractions from
// late-event revisions, checkpoint writes and restores, and admission
// verdicts on late or dropped arrivals.
//
// Every record carries a monotonically increasing sequence number and a
// wall_us field the writer always sets to 0, so two same-seed runs produce
// byte-identical journals and a journal can be golden-pinned and diffed like
// any other engine output.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
)

// Record is one journal line. Data holds the type-specific payload as it
// was marshalled by the writer (struct field order, hence byte layout, is
// fixed by the payload type's declaration order).
type Record struct {
	// Seq is the 1-based monotonic sequence number of the record.
	Seq int64 `json:"seq"`
	// WallUS is 0 in every record a Writer appends; Validate still requires
	// it to be non-decreasing.
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
	line, err := json.Marshal(Record{Seq: w.seq, Type: typ, Data: payload})
	if err != nil {
		return nil, fmt.Errorf("journal: %s record: %w", typ, err)
	}
	return append(line, '\n'), nil
}

// Flush hands the records appended since the last Flush to the underlying
// writer's own Flush, when it has one: a journal over a buffer reaches its
// file only where the caller flushes it (the engine does at each checkpoint
// generation, a suspend and the end of the run). Over any other writer the
// records were written as they were appended, and Flush does nothing. A
// failed flush is sticky, like a failed append.
func (w *Writer) Flush() error {
	if w == nil {
		return nil
	}
	f, ok := w.w.(interface{ Flush() error })
	if !ok {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if err := f.Flush(); err != nil {
		w.err = fmt.Errorf("journal: %w", err)
	}
	return w.err
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
// with no holes or duplicates), wall_us must be non-decreasing, and no
// record may follow the journal_capped marker.
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
	// Cut counts by type the complete records Cut removed past its
	// sequence number.
	Cut map[string]int
}

// Recover makes a journal file left behind by a crashed run appendable
// again. A crash can tear the final record mid-write; Recover validates the
// file with the same structural checks as Validate, truncates a trailing
// partial line (one that is unterminated, or whose bytes fail validation
// with nothing after it), and refuses anything worse: a bad record followed
// by complete ones is mid-file corruption, not a torn tail.
func Recover(path string) (RecoverInfo, error) { return Cut(path, math.MaxInt64) }

// Cut is Recover followed by a cut: every record numbered past through goes
// too, so the journal ends where it stood when record through was appended.
// A resumed engine cuts its journal back to its checkpoint's record; an
// open file descriptor for appending writes at the new end.
func Cut(path string, through int64) (RecoverInfo, error) {
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
			break
		}
		prev = rec
		off += nl + 1
		if rec.Seq > through {
			if info.Cut == nil {
				info.Cut = map[string]int{}
			}
			info.Cut[rec.Type]++
			continue
		}
		info.Records++
		info.LastSeq = rec.Seq
		info.Capped = rec.Type == "journal_capped"
		info.Written = int64(off)
	}
	if info.Written < int64(len(raw)) {
		if err := os.Truncate(path, info.Written); err != nil {
			return RecoverInfo{}, fmt.Errorf("journal: truncate: %w", err)
		}
	}
	return info, nil
}

// NewWriterResumed wraps w like NewWriter but continues a recovered
// journal: the next record takes sequence info.LastSeq+1, the size cap
// accounts for the bytes already on disk, and a journal recovered past its
// cap marker stays capped.
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
