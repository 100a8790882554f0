package stream

import (
	"strings"
	"testing"
)

func TestNDJSONRoundTrip(t *testing.T) {
	in := "10,entersArea,v1,a1\n20,velocity,v1,12.5\n30,gap_start,v2\n"
	s, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	var sb strings.Builder
	if err := s.WriteNDJSON(&sb); err != nil {
		t.Fatalf("WriteNDJSON: %v", err)
	}
	back, err := ReadNDJSON(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("ReadNDJSON: %v", err)
	}
	if len(back) != len(s) {
		t.Fatalf("round trip lost events: %d != %d", len(back), len(s))
	}
	for i := range s {
		if back[i].Time != s[i].Time || back[i].Atom.String() != s[i].Atom.String() {
			t.Errorf("event %d: got %v, want %v", i, back[i], s[i])
		}
	}
}

func TestReadNDJSONStrictNamesLine(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"bad json", `{"time":10,"atom":"e(a)"}` + "\n{broken\n", "line 2"},
		{"missing atom", `{"time":10}` + "\n", "line 1: missing atom"},
		{"bad atom", `{"time":10,"atom":"(("}` + "\n", "line 1: bad atom"},
		{"unknown field", `{"time":10,"atom":"e(a)","extra":1}` + "\n", "line 1"},
		{"trailing data", `{"time":10,"atom":"e(a)"} {"time":11,"atom":"e(b)"}` + "\n", "line 1: trailing data"},
		{"non-callable", `{"time":10,"atom":"7"}` + "\n", "not callable"},
		{"non-ground", `{"time":10,"atom":"enters(v2, Area)"}` + "\n", "line 1: event enters(v2, Area) is not ground"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadNDJSON(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want it to mention %q", err, tc.want)
			}
		})
	}
}

func TestReadNDJSONLenientQuarantines(t *testing.T) {
	in := strings.Join([]string{
		`{"time":10,"atom":"entersArea(v1, a1)"}`,
		`{garbled`,
		``, // blank lines are skipped but still counted
		`{"time":20,"atom":"(("}`,
		`{"time":30,"atom":"leavesArea(v1, a1)"}`,
		`{"time":40,"atom":"leavesArea(V17, a1)"}`,
	}, "\n") + "\n"
	s, bad, err := ReadNDJSONLenient(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadNDJSONLenient: %v", err)
	}
	if len(s) != 2 {
		t.Fatalf("kept %d events, want 2", len(s))
	}
	if len(bad) != 3 {
		t.Fatalf("quarantined %d lines, want 3: %v", len(bad), bad)
	}
	if bad[0].Line != 2 || bad[1].Line != 4 || bad[2].Line != 6 {
		t.Errorf("quarantine lines %d, %d, %d; want 2, 4, 6", bad[0].Line, bad[1].Line, bad[2].Line)
	}
	for _, b := range bad {
		if b.String() == "" {
			t.Errorf("BadRow %v renders empty", b)
		}
	}
}

func TestReadNDJSONEmptyAndBlank(t *testing.T) {
	for _, in := range []string{"", "\n\n", "  \n\t\n"} {
		s, err := ReadNDJSON(strings.NewReader(in))
		if err != nil {
			t.Fatalf("ReadNDJSON(%q): %v", in, err)
		}
		if len(s) != 0 {
			t.Fatalf("ReadNDJSON(%q) = %v, want empty", in, s)
		}
	}
}

// FuzzReadNDJSONLenient: rtecd ingests NDJSON straight off the network, so
// the lenient reader must never fail on line content — only quarantine it.
func FuzzReadNDJSONLenient(f *testing.F) {
	for _, s := range []string{
		"",
		`{"time":10,"atom":"entersArea(v1, a1)"}` + "\n",
		`{"time":10,"atom":"e(a)"}` + "\n" + `{"time":11,"atom":"e(b)"}` + "\n",
		`{"time":10,"atom":"e(a)"`, // truncated mid-object
		`{"time":10,"atom":"e(`,    // truncated mid-atom
		"{\"time\":1e99,\"atom\":\"e\"}\n",
		"{\"time\":10,\"atom\":\"e\\u0000(a)\"}\n",
		"null\n",
		"[1,2]\n",
		"{garbled\x00\xff\n",
		strings.Repeat(`{"time":1,"atom":"e(a)"}`+"\n", 50),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		s, bad, err := ReadNDJSONLenient(strings.NewReader(src))
		if err != nil {
			// Only scanner-level failures (token too long) may surface.
			if !strings.Contains(err.Error(), "token too long") {
				t.Fatalf("lenient read failed on content: %v", err)
			}
			return
		}
		for _, b := range bad {
			if b.Line <= 0 {
				t.Fatalf("quarantined row without a line number: %v", b)
			}
		}
		// Whatever reads back must serialise again and re-read identically.
		var sb strings.Builder
		if err := s.WriteNDJSON(&sb); err != nil {
			t.Fatalf("WriteNDJSON failed on parsed stream: %v", err)
		}
		again, err := ReadNDJSON(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		if len(again) != len(s) {
			t.Fatalf("re-read lost events: %d != %d", len(again), len(s))
		}
	})
}
