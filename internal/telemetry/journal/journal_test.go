package journal

import (
	"bytes"
	"os"
	"strings"
	"sync"
	"testing"
)

func TestAppendSequenceAndDeterminism(t *testing.T) {
	write := func() string {
		var buf bytes.Buffer
		w := NewWriter(&buf, Options{})
		if err := w.Append("run_start", map[string]int{"seed": 42}); err != nil {
			t.Fatal(err)
		}
		if err := w.Append("window", map[string]int{"t": 10}); err != nil {
			t.Fatal(err)
		}
		if err := w.Append("run_end", nil); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := write(), write()
	if a != b {
		t.Fatalf("same-seed journals differ:\n%s\nvs\n%s", a, b)
	}

	recs, err := Read(strings.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("records = %d, want 3", len(recs))
	}
	for i, rec := range recs {
		if rec.Seq != int64(i+1) {
			t.Errorf("record %d seq = %d", i, rec.Seq)
		}
		if rec.WallUS != 0 {
			t.Errorf("record %d wall_us = %d, want 0", i, rec.WallUS)
		}
	}
	if recs[0].Type != "run_start" || recs[2].Type != "run_end" {
		t.Fatalf("types = %s..%s", recs[0].Type, recs[2].Type)
	}
}

func TestSizeCapMarker(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{MaxBytes: 200})
	for i := 0; i < 50; i++ {
		if err := w.Append("window", map[string]int{"i": i}); err != nil {
			t.Fatal(err)
		}
	}
	if !w.Capped() {
		t.Fatal("writer not capped")
	}
	if w.Dropped() == 0 {
		t.Fatal("no drops counted")
	}
	stats, err := Validate(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("capped journal invalid: %v\n%s", err, buf.String())
	}
	if !stats.Capped {
		t.Fatal("Validate missed the cap marker")
	}
	if stats.Types["journal_capped"] != 1 {
		t.Fatalf("cap markers = %d, want 1", stats.Types["journal_capped"])
	}
	// The marker must be the last record.
	recs, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if recs[len(recs)-1].Type != "journal_capped" {
		t.Fatalf("last record = %s", recs[len(recs)-1].Type)
	}
}

// TestConcurrentAppend hammers one writer from many goroutines; run under
// -race in ci.sh. Sequence numbers must come out gapless.
func TestConcurrentAppend(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{})
	const goroutines, perG = 8, 200
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				if err := w.Append("window", map[string]int{"g": id, "j": j}); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if w.Seq() != goroutines*perG {
		t.Fatalf("seq = %d, want %d", w.Seq(), goroutines*perG)
	}
	stats, err := Validate(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != goroutines*perG {
		t.Fatalf("records = %d, want %d", stats.Records, goroutines*perG)
	}
}

func TestNilWriter(t *testing.T) {
	var w *Writer
	if err := w.Append("x", nil); err != nil {
		t.Fatal(err)
	}
	if w.Seq() != 0 || w.Dropped() != 0 || w.Capped() {
		t.Fatal("nil writer leaked state")
	}
}

func TestValidateRejects(t *testing.T) {
	for name, doc := range map[string]string{
		"empty":           "",
		"malformed json":  "{not json}\n",
		"missing type":    `{"seq":1,"wall_us":0}` + "\n",
		"seq gap":         `{"seq":1,"wall_us":0,"type":"a"}` + "\n" + `{"seq":3,"wall_us":0,"type":"b"}` + "\n",
		"seq duplicate":   `{"seq":1,"wall_us":0,"type":"a"}` + "\n" + `{"seq":1,"wall_us":0,"type":"b"}` + "\n",
		"seq from zero":   `{"seq":0,"wall_us":0,"type":"a"}` + "\n",
		"clock backwards": `{"seq":1,"wall_us":9,"type":"a"}` + "\n" + `{"seq":2,"wall_us":3,"type":"b"}` + "\n",
		"after cap":       `{"seq":1,"wall_us":0,"type":"journal_capped"}` + "\n" + `{"seq":2,"wall_us":0,"type":"a"}` + "\n",
	} {
		if _, err := Validate(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted:\n%s", name, doc)
		}
	}
}

// errWriter fails after n successful writes.
type errWriter struct{ n int }

func (e *errWriter) Write(p []byte) (int, error) {
	if e.n <= 0 {
		return 0, errSink
	}
	e.n--
	return len(p), nil
}

var errSink = &stickyErr{}

type stickyErr struct{}

func (*stickyErr) Error() string { return "sink failed" }

func TestStickyError(t *testing.T) {
	w := NewWriter(&errWriter{n: 1}, Options{})
	if err := w.Append("a", nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Append("b", nil); err == nil {
		t.Fatal("write past failure succeeded")
	}
	if err := w.Append("c", nil); err == nil {
		t.Fatal("sticky error not sticky")
	}
}

// TestMarkRollback replays a writer past a mark and checks the rolled-back
// writer regenerates byte-identical records — the invariant the shard
// runtime's staged journal depends on for crash-identical recovery.
func TestMarkRollback(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{})
	w.Append("run_start", nil)
	w.Append("window", map[string]int{"t": 1})
	m := w.Mark()
	keep := buf.Len()
	w.Append("window", map[string]int{"t": 2})
	w.Append("window", map[string]int{"t": 3})
	suffix := string(buf.Bytes()[keep:])

	// Roll back and replay: the same appends must produce the same bytes.
	buf.Truncate(keep)
	w.Rollback(m)
	if w.Seq() != 2 {
		t.Fatalf("seq after rollback = %d, want 2", w.Seq())
	}
	w.Append("window", map[string]int{"t": 2})
	w.Append("window", map[string]int{"t": 3})
	if got := string(buf.Bytes()[keep:]); got != suffix {
		t.Fatalf("replayed suffix differs:\n%q\nvs\n%q", got, suffix)
	}
	if _, err := Validate(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
}

func TestMarkRollbackRestoresCap(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{MaxBytes: 120})
	w.Append("run_start", nil)
	m := w.Mark()
	for i := 0; i < 10; i++ {
		w.Append("window", map[string]int{"i": i})
	}
	if !w.Capped() {
		t.Fatal("writer not capped")
	}
	w.Rollback(m)
	if w.Capped() || w.Dropped() != 0 {
		t.Fatal("rollback kept the cap state")
	}
}

func TestNilWriterMark(t *testing.T) {
	var w *Writer
	w.Rollback(w.Mark()) // must not panic
}

func writeJournalFile(t *testing.T, path string, tail string) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{})
	w.Append("run_start", nil)
	w.Append("window", map[string]int{"t": 1})
	w.Append("window", map[string]int{"t": 2})
	buf.WriteString(tail)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverTruncatesTornTail(t *testing.T) {
	for name, tail := range map[string]string{
		"cut mid-record":      `{"seq":4,"wall_us":0,"type":"wind`,
		"cut before newline":  `{"seq":4,"wall_us":0,"type":"window"}`,
		"malformed last line": "{garbage}\n",
	} {
		t.Run(name, func(t *testing.T) {
			path := t.TempDir() + "/j.jsonl"
			writeJournalFile(t, path, tail)
			info, err := Recover(path)
			if err != nil {
				t.Fatal(err)
			}
			if info.Records != 3 || info.LastSeq != 3 {
				t.Fatalf("info = %+v, want 3 records through seq 3", info)
			}
			if info.Truncated == 0 {
				t.Fatal("nothing truncated")
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(raw)) != info.Written {
				t.Fatalf("file size %d != Written %d", len(raw), info.Written)
			}
			// The recovered file validates and a resumed writer continues it.
			if _, err := Validate(bytes.NewReader(raw)); err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			w := NewWriterResumed(f, Options{}, info)
			if err := w.Append("journal_recovered", nil); err != nil {
				t.Fatal(err)
			}
			raw, _ = os.ReadFile(path)
			recs, err := Read(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			if last := recs[len(recs)-1]; last.Seq != 4 || last.Type != "journal_recovered" {
				t.Fatalf("last record = %+v", last)
			}
		})
	}
}

// TestOpenCreatesOrRecovers: without resume (or without a file) Open starts
// a fresh journal; with resume it continues a torn one, and only a
// lifecycle journal (marker set) gains the journal_recovered record.
func TestOpenCreatesOrRecovers(t *testing.T) {
	for _, marker := range []bool{true, false} {
		path := t.TempDir() + "/j.jsonl"
		f, w, info, err := Open(path, Options{}, true, marker)
		if err != nil || info != nil {
			t.Fatalf("open of a missing file: info=%v err=%v, want a fresh journal", info, err)
		}
		if err := w.Append("run_start", nil); err != nil {
			t.Fatal(err)
		}
		f.Close()
		writeJournalFile(t, path, `{"seq":4,"wall_us":0,"type":"wind`)

		f, w, info, err = Open(path, Options{}, true, marker)
		if err != nil {
			t.Fatal(err)
		}
		if info == nil || info.Records != 3 || info.Truncated == 0 {
			t.Fatalf("marker=%v: info = %+v, want 3 records kept and a torn tail cut", marker, info)
		}
		if err := w.Append("window", nil); err != nil {
			t.Fatal(err)
		}
		f.Close()
		raw, _ := os.ReadFile(path)
		stats, err := Validate(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("marker=%v: resumed journal invalid: %v\n%s", marker, err, raw)
		}
		want := 0
		if marker {
			want = 1
		}
		if stats.Types["journal_recovered"] != want || stats.Records != 4+want {
			t.Fatalf("marker=%v: %d records, %d markers\n%s", marker, stats.Records, stats.Types["journal_recovered"], raw)
		}

		// Without resume the file is started over.
		f, _, info, err = Open(path, Options{}, false, marker)
		if err != nil || info != nil {
			t.Fatalf("fresh open: info=%v err=%v", info, err)
		}
		f.Close()
		if raw, _ := os.ReadFile(path); len(raw) != 0 {
			t.Fatalf("fresh open kept %d bytes", len(raw))
		}
	}
}

func TestRecoverCleanAndEmpty(t *testing.T) {
	path := t.TempDir() + "/j.jsonl"
	writeJournalFile(t, path, "")
	info, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 3 || info.Truncated != 0 {
		t.Fatalf("clean journal: info = %+v", info)
	}

	empty := t.TempDir() + "/empty.jsonl"
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	info, err = Recover(empty)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 0 || info.Written != 0 {
		t.Fatalf("empty journal: info = %+v", info)
	}
}

func TestRecoverRefusesMidFileCorruption(t *testing.T) {
	path := t.TempDir() + "/j.jsonl"
	writeJournalFile(t, path, "{garbage}\n"+`{"seq":4,"wall_us":0,"type":"window"}`+"\n")
	if _, err := Recover(path); err == nil {
		t.Fatal("mid-file corruption recovered")
	}
}

func TestRecoverKeepsCap(t *testing.T) {
	path := t.TempDir() + "/j.jsonl"
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{MaxBytes: 120})
	for i := 0; i < 10; i++ {
		w.Append("window", map[string]int{"i": i})
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	info, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Capped {
		t.Fatal("cap marker lost in recovery")
	}
	var sink bytes.Buffer
	rw := NewWriterResumed(&sink, Options{MaxBytes: 120}, info)
	if err := rw.Append("window", nil); err != nil {
		t.Fatal(err)
	}
	if sink.Len() != 0 || rw.Dropped() != 1 {
		t.Fatal("resumed writer appended past the cap marker")
	}
}
