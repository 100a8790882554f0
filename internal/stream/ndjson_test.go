package stream

import (
	"strings"
	"testing"
)

// replayBatch is twenty consecutive arrivals of the 14-vessel seed-7
// scenario at a 120 s report interval, as cmd/disorder writes them: one
// request body of the daemon_replay benchmark workload.
const replayBatch = `{"time":0,"atom":"entersArea(gapper1, fishingA)"}
{"time":0,"atom":"entersArea(speeder1, coastZone)"}
{"time":0,"atom":"entersArea(trawler1, brestPort)"}
{"time":0,"atom":"entersArea(trawler1, coastZone)"}
{"time":0,"atom":"proximity_start(barge1, tug1)"}
{"time":0,"atom":"velocity(anchor1, 10.15, 46.99, 46.99)"}
{"time":0,"atom":"velocity(barge1, 6.75, 1.22, 1.22)"}
{"time":0,"atom":"velocity(cargoIn1, 14.09, 89.02, 89.02)"}
{"time":0,"atom":"velocity(drift1, 9.73, 90.3, 90.3)"}
{"time":0,"atom":"velocity(gapper1, 11.8, 55.99, 55.99)"}
{"time":0,"atom":"velocity(gapper2, 11.14, 49.53, 49.53)"}
{"time":0,"atom":"velocity(moor1, 11.94, 119.28, 119.28)"}
{"time":0,"atom":"velocity(speeder1, 16.07, 1.85, 1.85)"}
{"time":0,"atom":"velocity(trawler1, 9.97, 249.98, 249.98)"}
{"time":0,"atom":"velocity(tug1, 7.04, 359.67, 359.67)"}
{"time":120,"atom":"velocity(anchor1, 9.98, 45.22, 45.22)"}
{"time":120,"atom":"velocity(barge1, 7.19, 0.18, 0.18)"}
{"time":120,"atom":"velocity(cargoIn1, 13.82, 89.02, 89.02)"}
{"time":120,"atom":"velocity(drift1, 9.72, 88.88, 88.88)"}
{"time":120,"atom":"velocity(gapper1, 11.73, 56.47, 56.47)"}
`

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
		// encoding/json's More reports false before '}' and ']', so these
		// once passed as one event each.
		{"trailing brace", `{"time":10,"atom":"e(a)"}}` + "\n", "line 1: trailing data"},
		{"trailing bracket", `{"time":10,"atom":"e(a)"}]` + "\n", "line 1: trailing data"},
		{"spaced trailing brace", `{"time":10,"atom":"e(a)"} }` + "\n", "line 1: trailing data"},
		{"general trailing brace", `{"atom":"e(a)","time":10}}` + "\n", "line 1: trailing data"},
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
		`{"time":50,"atom":"leavesArea(v2, a1)"}]`,
	}, "\n") + "\n"
	s, bad, err := ReadNDJSONLenient(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadNDJSONLenient: %v", err)
	}
	if len(s) != 2 {
		t.Fatalf("kept %d events, want 2", len(s))
	}
	if len(bad) != 4 {
		t.Fatalf("quarantined %d lines, want 4: %v", len(bad), bad)
	}
	if bad[0].Line != 2 || bad[1].Line != 4 || bad[2].Line != 6 || bad[3].Line != 7 {
		t.Errorf("quarantine lines %d, %d, %d, %d; want 2, 4, 6, 7", bad[0].Line, bad[1].Line, bad[2].Line, bad[3].Line)
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

// decodeAllocCeiling bounds the heap allocations per event of decoding
// replayBatch: one atom string from the canonical-line recogniser,
// ParseTerm's parser and term tree, and a share of the scanner's one
// buffer and the result slice. Measured 15.15 when it was committed; a
// reader that decodes canonical lines through encoding/json again reads 26
// or more.
const decodeAllocCeiling = 17

func TestNDJSONDecodeAllocCeiling(t *testing.T) {
	var n int
	allocs := testing.AllocsPerRun(20, func() {
		s, bad, err := ReadNDJSONLenient(strings.NewReader(replayBatch))
		if err != nil || len(bad) != 0 {
			t.Fatalf("ReadNDJSONLenient: %v, %v", err, bad)
		}
		n = len(s)
	})
	if n != 20 {
		t.Fatalf("decoded %d events, want 20", n)
	}
	perEvent := allocs / float64(n)
	t.Logf("%.0f allocs per 20-line batch, %.2f per event, ceiling %d", allocs, perEvent, decodeAllocCeiling)
	if perEvent > decodeAllocCeiling {
		t.Fatalf("decoding allocates %.2f objects per event, ceiling %d", perEvent, decodeAllocCeiling)
	}
}

// FuzzNDJSONCanonicalLine holds the canonical-line recogniser to the
// definition of the wire format: every line it accepts, encoding/json
// decodes without error to the same time and atom text.
func FuzzNDJSONCanonicalLine(f *testing.F) {
	for _, s := range []string{
		`{"time":10,"atom":"e(a)"}`,
		`{"time":9223372036854775807,"atom":"e(a)"}`,
		`{"time":-9223372036854775807,"atom":"e(a)"}`,
		`{"time":999999999999999999,"atom":"e(a)"}`,
		`{"time":-999999999999999999,"atom":"e(a)"}`,
		`{"time":-0,"atom":"e(a)"}`,
		`{"time":0,"atom":"e(a)"}`,
		`{"time":007,"atom":"e(a)"}`,
		`{"time":1e3,"atom":"e(a)"}`,
		`{"time":10.0,"atom":"e(a)"}`,
		`{"time":10,"atom":"lt(\u003c, b)"}`,
		`{"time":10,"atom":"lt(<, &, >)"}`,
		`{"time":10,"atom":"e(caf\u00e9)"}`,
		"{\"time\":10,\"atom\":\"e(caf\xc3\xa9)\"}",
		"{\"time\":10,\"atom\":\"e(\x7f)\"}",
		"{\"time\":10,\"atom\":\"e(\x00)\"}",
		`{"time":10,"atom":"e(\"q\")"}`,
		`{"time":10,"atom":""}`,
		`{"atom":"e(a)","time":10}`,
		`{"TIME":10,"ATOM":"e(a)"}`,
		`{"Time":10,"atom":"e(a)"}`,
		`{"time": 10, "atom": "e(a)"}`,
		`{"time":10 ,"atom":"e(a)"}`,
		`{"time":10,"atom":"e(a)"}}`,
		`{"time":10,"atom":"e(a)"}]`,
		`{"time":10,"atom":"e(a)"} }`,
		`{"time":10,"atom":"e(a)"`,
		`{"time":,"atom":"e(a)"}`,
		`{"time":-,"atom":"e(a)"}`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		raw := []byte(line)
		tc, atom, ok := canonicalNDJSON(raw)
		if !ok {
			return
		}
		tj, atomJ, err := decodeJSONLine(1, raw)
		if err != nil {
			t.Fatalf("recogniser accepts %q, encoding/json refuses it: %v", line, err)
		}
		if tj != tc || atomJ != atom {
			t.Fatalf("%q: recogniser reads (%d, %q), encoding/json (%d, %q)", line, tc, atom, tj, atomJ)
		}
	})
}
