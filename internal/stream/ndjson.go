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

// maxNDJSONLine is the longest line the NDJSON readers accept.
const maxNDJSONLine = 4 * 1024 * 1024

// readNDJSON is the shared scanner behind ReadNDJSON (strict: first bad
// line aborts) and ReadNDJSONLenient (bad lines are quarantined). Blank
// lines are skipped but still counted, so reported line numbers match the
// input as a client sees it. The scanner grows its buffer from the
// default only as far as the longest line needs.
func readNDJSON(r io.Reader, lenient bool) (Stream, []BadRow, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxNDJSONLine)
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
// A line in the canonical form WriteNDJSON writes is read by
// canonicalNDJSON; any other line goes through decodeJSONLine.
func decodeNDJSONLine(line int, raw []byte) (Event, error) {
	t, text, ok := canonicalNDJSON(raw)
	if !ok {
		var err error
		if t, text, err = decodeJSONLine(line, raw); err != nil {
			return Event{}, err
		}
	}
	if text == "" {
		return Event{}, fmt.Errorf("stream: line %d: missing atom", line)
	}
	atom, err := parser.ParseTerm(text)
	if err != nil {
		return Event{}, fmt.Errorf("stream: line %d: bad atom %q: %v", line, text, err)
	}
	if err := checkEvent(line, atom); err != nil {
		return Event{}, err
	}
	return Event{Time: t, Atom: atom}, nil
}

// decodeJSONLine decodes the trimmed line numbered line with
// encoding/json, which defines the wire format and words every error. An
// empty atom is returned for the caller to refuse; a line with an atom but
// no time is refused here.
func decodeJSONLine(line int, raw []byte) (t int64, atom string, err error) {
	var we ndjsonEvent
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&we); err != nil {
		return 0, "", fmt.Errorf("stream: line %d: bad JSON: %v", line, err)
	}
	// Trailing bytes after the object make a malformed line, not a second
	// record: NDJSON is one object per line. raw is trimmed, so the object
	// must end it.
	if dec.InputOffset() != int64(len(raw)) {
		return 0, "", fmt.Errorf("stream: line %d: trailing data after event object", line)
	}
	if we.Time == nil {
		if we.Atom != "" {
			return 0, "", fmt.Errorf("stream: line %d: missing time", line)
		}
		return 0, "", nil
	}
	return *we.Time, we.Atom, nil
}

// canonicalNDJSON recognises the one line shape WriteNDJSON writes for an
// atom that needs no JSON escape, {"time":N,"atom":"..."}: N an integer of
// at most 18 digits (so it cannot overflow) without a leading zero, the
// atom non-empty printable ASCII without '"' or a backslash, no whitespace
// outside the atom and nothing after the closing brace. Every line it
// accepts encoding/json decodes to the same time and atom
// (FuzzNDJSONCanonicalLine); ok is false for anything else, which the
// caller then decodes in full.
func canonicalNDJSON(raw []byte) (t int64, atom string, ok bool) {
	const head, mid = `{"time":`, `,"atom":"`
	if !bytes.HasPrefix(raw, []byte(head)) {
		return 0, "", false
	}
	i := len(head)
	neg := i < len(raw) && raw[i] == '-'
	if neg {
		i++
	}
	digits := i
	for ; i < len(raw) && raw[i] >= '0' && raw[i] <= '9'; i++ {
		t = t*10 + int64(raw[i]-'0')
	}
	if n := i - digits; n == 0 || n > 18 || n > 1 && raw[digits] == '0' {
		return 0, "", false
	}
	if neg {
		t = -t
	}
	if !bytes.HasPrefix(raw[i:], []byte(mid)) {
		return 0, "", false
	}
	i += len(mid)
	start := i
	for ; i < len(raw) && raw[i] != '"'; i++ {
		if c := raw[i]; c < 0x20 || c > 0x7e || c == '\\' {
			return 0, "", false
		}
	}
	if i == start || len(raw) != i+2 || raw[i+1] != '}' {
		return 0, "", false
	}
	return t, string(raw[start:i]), true
}
