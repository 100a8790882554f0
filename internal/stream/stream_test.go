package stream

import (
	"bytes"
	"strings"
	"testing"

	"rtecgen/internal/parser"
)

func ev(t int64, src string) Event {
	return Event{Time: t, Atom: parser.MustParseTerm(src)}
}

func TestSortAndIsSorted(t *testing.T) {
	s := Stream{ev(5, "b"), ev(1, "a"), ev(5, "a")}
	if s.IsSorted() {
		t.Fatal("unsorted stream reported sorted")
	}
	s.Sort()
	if !s.IsSorted() {
		t.Fatal("sorted stream reported unsorted")
	}
	if s[0].Time != 1 || s[1].Atom.Functor != "a" || s[2].Atom.Functor != "b" {
		t.Fatalf("sort order wrong: %v", s)
	}
}

func TestSortTieBreakDeterministic(t *testing.T) {
	// Same-time events break ties on rendered atom text, so any input
	// permutation sorts to the same canonical order.
	s := Stream{ev(5, "c(v2, x)"), ev(5, "c(v1, x)"), ev(5, "b(v9)"), ev(5, "c(v10, x)")}
	s.Sort()
	want := []string{"b(v9)", "c(v1, x)", "c(v10, x)", "c(v2, x)"}
	for i, w := range want {
		if got := s[i].Atom.String(); got != w {
			t.Fatalf("s[%d] = %s, want %s (full: %v)", i, got, w, s)
		}
	}
}

func TestDedup(t *testing.T) {
	s := Stream{
		ev(10, "entersArea(v1, a1)"),
		ev(10, "entersArea(v1, a1)"), // exact duplicate
		ev(10, "entersArea(v2, a1)"), // same time, different atom
		ev(20, "entersArea(v1, a1)"), // same atom, different time
		ev(10, "entersArea(v1, a1)"), // duplicate again, out of order
	}
	out, dropped := s.Dedup()
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2", dropped)
	}
	if len(out) != 3 {
		t.Fatalf("kept = %v, want 3 events", out)
	}
	// First occurrences survive in arrival order.
	if out[0].Time != 10 || out[1].Atom.String() != "entersArea(v2, a1)" || out[2].Time != 20 {
		t.Fatalf("dedup kept %v", out)
	}

	var empty Stream
	if out, dropped := empty.Dedup(); len(out) != 0 || dropped != 0 {
		t.Fatalf("empty dedup = %v, %d", out, dropped)
	}
}

func TestTimeRange(t *testing.T) {
	var empty Stream
	if f, l := empty.TimeRange(); f != 0 || l != 0 {
		t.Fatalf("empty TimeRange = %d, %d", f, l)
	}
	s := Stream{ev(7, "a"), ev(2, "b"), ev(9, "c")}
	if f, l := s.TimeRange(); f != 2 || l != 9 {
		t.Fatalf("TimeRange = %d, %d", f, l)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := Stream{
		ev(10, "entersArea(v42, a1)"),
		ev(20, "velocity(v42, 12.5, 90.0, 88.0)"),
		ev(30, "gap_start(v42)"),
	}
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(s) {
		t.Fatalf("round trip length = %d, want %d", len(got), len(s))
	}
	for i := range s {
		if got[i].Time != s[i].Time || !got[i].Atom.Equal(s[i].Atom) {
			t.Fatalf("event %d = %s, want %s", i, got[i], s[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"notanumber,foo\n",
		"5\n",
		"5,foo,((\n",
		"5,enters,v2,Area\n", // a capitalised token is a variable: not an event
		"5,enters,v2,_\n",
	}
	for _, src := range cases {
		if _, err := ReadCSV(strings.NewReader(src)); err == nil {
			t.Errorf("ReadCSV(%q) succeeded, want error", src)
		}
	}
	// Empty input is an empty stream, not an error.
	got, err := ReadCSV(strings.NewReader(""))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty input: %v, %v", got, err)
	}
}

func TestReadCSVLenientQuarantinesBadRows(t *testing.T) {
	src := "10,entersArea,v42,a1\n" +
		"notanumber,foo\n" +
		"5\n" +
		"20,gap_start,v42\n" +
		"30,foo,((\n" +
		"40,stop_start,v42\n" +
		"50,entersArea,v42,Area\n"
	got, bad, err := ReadCSVLenient(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("kept %d events, want 3: %v", len(got), got)
	}
	if got[0].Time != 10 || got[1].Time != 20 || got[2].Time != 40 {
		t.Fatalf("kept the wrong rows: %v", got)
	}
	if len(bad) != 4 {
		t.Fatalf("quarantined %d rows, want 4: %v", len(bad), bad)
	}
	if !strings.Contains(bad[3].Err.Error(), "line 7: event entersArea(v42, Area) is not ground") {
		t.Errorf("non-ground row rejected as %v", bad[3].Err)
	}
	wantLines := []int{2, 3, 5, 7}
	for i, b := range bad {
		if b.Line != wantLines[i] {
			t.Errorf("bad row %d: line = %d, want %d", i, b.Line, wantLines[i])
		}
		if b.Err == nil {
			t.Errorf("bad row %d: missing cause", i)
		}
	}
	if bad[0].Record[0] != "notanumber" {
		t.Errorf("bad row 0 lost its record: %v", bad[0])
	}
	if s := bad[0].String(); !strings.Contains(s, "line 2") {
		t.Errorf("BadRow.String() = %q, want the line number", s)
	}
}

func TestReadCSVLenientSurvivesCSVParseErrors(t *testing.T) {
	// A bare quote is an error of the CSV layer itself, not row content.
	src := "10,entersArea,v42,a1\n" +
		"20,bad\"quote,x\n" +
		"30,gap_start,v42\n"
	got, bad, err := ReadCSVLenient(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Time != 10 || got[1].Time != 30 {
		t.Fatalf("kept %v, want rows 10 and 30", got)
	}
	if len(bad) != 1 {
		t.Fatalf("quarantined %v, want 1 row", bad)
	}
	// The same input fails outright in strict mode.
	if _, err := ReadCSV(strings.NewReader(src)); err == nil {
		t.Fatal("strict ReadCSV accepted a bare quote")
	}
}

func TestReadCSVLenientCleanInput(t *testing.T) {
	s := Stream{ev(10, "entersArea(v42, a1)"), ev(20, "gap_start(v42)")}
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, bad, err := ReadCSVLenient(&buf)
	if err != nil || len(bad) != 0 {
		t.Fatalf("clean input quarantined rows: %v, %v", bad, err)
	}
	if len(got) != 2 {
		t.Fatalf("round trip = %v", got)
	}
}

func TestWriteCSVRejectsNonCallable(t *testing.T) {
	s := Stream{ev(1, "42")}
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err == nil {
		t.Fatal("non-callable event accepted")
	}
}

func TestWindow(t *testing.T) {
	s := Stream{ev(1, "a"), ev(5, "b"), ev(5, "c"), ev(9, "d"), ev(12, "e")}
	w := s.Window(5, 12)
	if len(w) != 3 || w[0].Atom.Functor != "b" || w[2].Atom.Functor != "d" {
		t.Fatalf("Window = %v", w)
	}
	if len(s.Window(100, 200)) != 0 {
		t.Fatal("out-of-range window not empty")
	}
	if len(s.Window(0, 100)) != 5 {
		t.Fatal("full window wrong")
	}
}

func TestEventString(t *testing.T) {
	if got := ev(23, "entersArea(v42, a1)").String(); got != "happensAt(entersArea(v42, a1), 23)" {
		t.Fatalf("String = %q", got)
	}
}
