package stream

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"rtecgen/internal/parser"
)

// ndjsonEvent is the wire form of one event: {"time":10,"atom":"f(a, b)"}.
// The atom is concrete Prolog-style syntax, exactly as in the CSV format's
// rendered arguments, so the two serialisations round-trip through the same
// parser. Time is a pointer so that a line without one (or with null) is
// told apart from time 0.
type ndjsonEvent struct {
	Time *int64 `json:"time"`
	Atom string `json:"atom"`
}

// WriteNDJSON serialises the stream as newline-delimited JSON, one
// {"time":...,"atom":"..."} object per line. ReadNDJSON parses it back.
func (s Stream) WriteNDJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range s {
		if !e.Atom.IsCallable() {
			return fmt.Errorf("stream: event %s is not callable", e.Atom)
		}
		if err := enc.Encode(ndjsonEvent{Time: &e.Time, Atom: e.Atom.String()}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadNDJSON parses a newline-delimited JSON event stream. Malformed lines
// produce an error naming the offending 1-based line — the contract rtecd
// turns into line-numbered HTTP 400s.
func ReadNDJSON(r io.Reader) (Stream, error) {
	s, _, err := readNDJSON(r, false)
	return s, err
}

// ReadNDJSONLenient parses like ReadNDJSON but quarantines malformed lines
// instead of failing, mirroring ReadCSVLenient: every bad line is returned
// with its line number and cause, and scanning continues. The error is
// non-nil only for failures of the reader itself, never for line content.
func ReadNDJSONLenient(r io.Reader) (Stream, []BadRow, error) {
	return readNDJSON(r, true)
}

// readNDJSON is the shared scanner behind ReadNDJSON (strict: first bad
// line aborts) and ReadNDJSONLenient (bad lines are quarantined). Blank
// lines are skipped but still counted, so reported line numbers match the
// input as a client sees it.
func readNDJSON(r io.Reader, lenient bool) (Stream, []BadRow, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	var out Stream
	var bad []BadRow
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		ev, err := decodeNDJSONLine(line, raw)
		if err != nil {
			if !lenient {
				return nil, nil, err
			}
			bad = append(bad, BadRow{Line: line, Record: []string{string(raw)}, Err: err})
			continue
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("stream: line %d: %w", line+1, err)
	}
	return out, bad, nil
}

// decodeNDJSONLine decodes the non-blank line numbered line into an event.
func decodeNDJSONLine(line int, raw []byte) (Event, error) {
	var we ndjsonEvent
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&we); err != nil {
		return Event{}, fmt.Errorf("stream: line %d: bad JSON: %v", line, err)
	}
	// Trailing garbage after the object is a malformed line, not a
	// second record: NDJSON is one object per line.
	if dec.More() {
		return Event{}, fmt.Errorf("stream: line %d: trailing data after event object", line)
	}
	if we.Atom == "" {
		return Event{}, fmt.Errorf("stream: line %d: missing atom", line)
	}
	if we.Time == nil {
		return Event{}, fmt.Errorf("stream: line %d: missing time", line)
	}
	atom, err := parser.ParseTerm(we.Atom)
	if err != nil {
		return Event{}, fmt.Errorf("stream: line %d: bad atom %q: %v", line, we.Atom, err)
	}
	if err := checkEvent(line, atom); err != nil {
		return Event{}, err
	}
	return Event{Time: *we.Time, Atom: atom}, nil
}
