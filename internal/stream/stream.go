// Package stream defines the event streams RTEC reasons over: time-stamped
// ground atoms, with CSV serialisation for interoperability with the
// command-line tools.
package stream

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"rtecgen/internal/lang"
	"rtecgen/internal/parser"
)

// Event is one item of the input stream: the ground atom Atom occurred at
// time-point Time (happensAt(Atom, Time)).
type Event struct {
	Time int64
	Atom *lang.Term
}

// String renders the event as happensAt notation.
func (e Event) String() string {
	return fmt.Sprintf("happensAt(%s, %d)", e.Atom, e.Time)
}

// Stream is a sequence of events. Sort before handing it to the engine; the
// engine tolerates unsorted input by sorting a copy.
type Stream []Event

// Sort orders the stream by time, breaking ties by the rendered source text
// of the atom so same-timestamp events have one canonical order regardless
// of arrival order. The sort is stable, so events whose time AND text
// coincide (exact duplicates) keep their relative arrival order. Each atom
// is rendered at most once, and only when it ties on time with a neighbour;
// an already sorted stream returns after one linear pass.
func (s Stream) Sort() {
	keys := make([]string, len(s))
	// before reports whether event i must precede event j.
	before := func(i, j int) bool {
		if s[i].Time != s[j].Time {
			return s[i].Time < s[j].Time
		}
		if keys[i] == "" {
			keys[i] = s[i].Atom.String()
		}
		if keys[j] == "" {
			keys[j] = s[j].Atom.String()
		}
		return keys[i] < keys[j]
	}
	sorted := true
	for i := 1; i < len(s) && sorted; i++ {
		sorted = !before(i, i-1)
	}
	if sorted {
		return
	}
	// Sort a permutation, so the cached renderings stay addressable by the
	// events' original positions while elements move.
	idx := make([]int, len(s))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return before(idx[a], idx[b]) })
	orig := append(Stream(nil), s...)
	for i, k := range idx {
		s[i] = orig[k]
	}
}

// Dedup removes exact duplicates — events with the same time-point and the
// same rendered atom — keeping the first occurrence in stream order. It
// returns the deduplicated stream and the number of events dropped. The
// receiver is not modified and need not be sorted.
func (s Stream) Dedup() (Stream, int) {
	seen := make(map[string]bool, len(s))
	out := make(Stream, 0, len(s))
	for _, e := range s {
		key := dedupKey(e)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, e)
	}
	return out, len(s) - len(out)
}

// dedupKey is the identity of an event for duplicate detection: its
// time-point and the canonical text of its atom.
func dedupKey(e Event) string {
	return strconv.FormatInt(e.Time, 10) + "|" + e.Atom.String()
}

// IsSorted reports whether the stream is in time order.
func (s Stream) IsSorted() bool {
	return sort.SliceIsSorted(s, func(i, j int) bool { return s[i].Time < s[j].Time })
}

// TimeRange returns the earliest and latest time-points in the stream, or
// (0, 0) for an empty stream.
func (s Stream) TimeRange() (first, last int64) {
	if len(s) == 0 {
		return 0, 0
	}
	first, last = s[0].Time, s[0].Time
	for _, e := range s[1:] {
		if e.Time < first {
			first = e.Time
		}
		if e.Time > last {
			last = e.Time
		}
	}
	return first, last
}

// WriteCSV serialises the stream as rows of "time,functor,arg1,...". Term
// arguments are rendered in concrete syntax and parsed back by ReadCSV.
func (s Stream) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	for _, e := range s {
		if !e.Atom.IsCallable() {
			return fmt.Errorf("stream: event %s is not callable", e.Atom)
		}
		rec := make([]string, 0, 2+len(e.Atom.Args))
		rec = append(rec, strconv.FormatInt(e.Time, 10), e.Atom.Functor)
		for _, a := range e.Atom.Args {
			rec = append(rec, a.String())
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// BadRow records one malformed CSV row quarantined by ReadCSVLenient: the
// 1-based data line it came from, the raw record (nil when the CSV layer
// itself failed), and the reason it was rejected.
type BadRow struct {
	Line   int
	Record []string
	Err    error
}

// String renders the quarantined row for diagnostics.
func (b BadRow) String() string {
	return fmt.Sprintf("line %d: %v (record %q)", b.Line, b.Err, b.Record)
}

// ReadCSV parses a stream written by WriteCSV. Malformed rows — a non-ground
// event among them — produce an error naming the offending line.
func ReadCSV(r io.Reader) (Stream, error) {
	s, _, err := readCSV(r, false)
	return s, err
}

// ReadCSVLenient parses like ReadCSV but quarantines malformed rows instead
// of failing: every bad row is returned with its line number and cause, and
// parsing continues with the next row. The error is non-nil only for
// failures of the reader itself (I/O errors), never for row content.
func ReadCSVLenient(r io.Reader) (Stream, []BadRow, error) {
	return readCSV(r, true)
}

// readCSV is the shared scanner behind ReadCSV (lenient=false: first bad row
// aborts, preserving the strict error messages) and ReadCSVLenient
// (lenient=true: bad rows are quarantined and scanning continues).
func readCSV(r io.Reader, lenient bool) (Stream, []BadRow, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	var out Stream
	var bad []BadRow
	line := 0
	// reject quarantines a row (lenient) or aborts the scan (strict).
	reject := func(rec []string, err error) error {
		if lenient {
			bad = append(bad, BadRow{Line: line, Record: rec, Err: err})
			return nil
		}
		return err
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return out, bad, nil
		}
		if err != nil {
			line++
			if _, ok := err.(*csv.ParseError); ok && lenient {
				bad = append(bad, BadRow{Line: line, Record: rec, Err: err})
				continue
			}
			return nil, nil, err
		}
		line++
		if len(rec) < 2 {
			if err := reject(rec, fmt.Errorf("stream: line %d: need at least time and event name", line)); err != nil {
				return nil, nil, err
			}
			continue
		}
		t, err := strconv.ParseInt(strings.TrimSpace(rec[0]), 10, 64)
		if err != nil {
			if err := reject(rec, fmt.Errorf("stream: line %d: bad time %q", line, rec[0])); err != nil {
				return nil, nil, err
			}
			continue
		}
		args := make([]*lang.Term, 0, len(rec)-2)
		ok := true
		for _, f := range rec[2:] {
			a, err := parser.ParseTerm(strings.TrimSpace(f))
			if err != nil {
				if err := reject(rec, fmt.Errorf("stream: line %d: bad argument %q: %v", line, f, err)); err != nil {
					return nil, nil, err
				}
				ok = false
				break
			}
			args = append(args, a)
		}
		if !ok {
			continue
		}
		atom := lang.NewCompound(strings.TrimSpace(rec[1]), args...)
		if !atom.IsGround() {
			if err := reject(rec, errNotGround(line, atom)); err != nil {
				return nil, nil, err
			}
			continue
		}
		out = append(out, Event{Time: t, Atom: atom})
	}
}

// errNotGround rejects an event that contains a variable (in this syntax, a
// capitalised or underscore-led token): events are ground by contract, and the
// engine's rules bind their own variables only.
func errNotGround(line int, atom *lang.Term) error {
	return fmt.Errorf("stream: line %d: event %s is not ground", line, atom)
}

// Window returns the sub-stream with Time in [start, end). The receiver must
// be sorted.
func (s Stream) Window(start, end int64) Stream {
	lo := sort.Search(len(s), func(i int) bool { return s[i].Time >= start })
	hi := sort.Search(len(s), func(i int) bool { return s[i].Time >= end })
	return s[lo:hi]
}
