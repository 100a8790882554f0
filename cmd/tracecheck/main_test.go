package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtecgen/internal/telemetry/journal"
)

func write(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const goodTrace = `{"traceEvents":[
  {"name":"rtec.run","ph":"X","ts":0,"dur":100,"pid":1,"tid":1},
  {"name":"rtec.window","ph":"X","ts":10,"dur":40,"pid":1,"tid":1}
],"displayTimeUnit":"ms"}`

func TestCheckAcceptsWellFormedTrace(t *testing.T) {
	path := write(t, goodTrace)
	if err := check(path, ""); err != nil {
		t.Fatal(err)
	}
	if err := check(path, "rtec.run,rtec.window"); err != nil {
		t.Fatal(err)
	}
}

func TestCheckRejections(t *testing.T) {
	cases := map[string]string{
		"not json":      `{"traceEvents":[`,
		"empty":         `{"traceEvents":[]}`,
		"unnamed event": `{"traceEvents":[{"ph":"X","ts":0,"dur":1}]}`,
		"wrong phase":   `{"traceEvents":[{"name":"a","ph":"B","ts":0}]}`,
		"negative time": `{"traceEvents":[{"name":"a","ph":"X","ts":-1,"dur":1}]}`,
	}
	for name, content := range cases {
		if err := check(write(t, content), ""); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := check(write(t, goodTrace), "pipeline.run"); err == nil {
		t.Error("missing required span accepted")
	}
	if err := check(filepath.Join(t.TempDir(), "nope.json"), ""); err == nil {
		t.Error("missing file accepted")
	}
}

func writeJournal(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const goodJournal = `{"seq":1,"wall_us":0,"type":"run_start","data":{"windows":2}}
{"seq":2,"wall_us":0,"type":"window","data":{"index":0}}
{"seq":3,"wall_us":0,"type":"run_end","data":{}}
`

func TestCheckJournalAcceptsWellFormed(t *testing.T) {
	path := writeJournal(t, goodJournal)
	if err := checkJournal(path, ""); err != nil {
		t.Fatal(err)
	}
	if err := checkJournal(path, "run_start,window,run_end"); err != nil {
		t.Fatal(err)
	}
}

func TestCheckJournalRejections(t *testing.T) {
	cases := map[string]string{
		"empty":         "",
		"not json":      "{\n",
		"seq gap":       `{"seq":1,"wall_us":0,"type":"a","data":{}}` + "\n" + `{"seq":3,"wall_us":0,"type":"b","data":{}}` + "\n",
		"clock reverse": `{"seq":1,"wall_us":9,"type":"a","data":{}}` + "\n" + `{"seq":2,"wall_us":3,"type":"b","data":{}}` + "\n",
	}
	for name, content := range cases {
		if err := checkJournal(writeJournal(t, content), ""); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := checkJournal(writeJournal(t, goodJournal), "checkpoint"); err == nil {
		t.Error("missing required record type accepted")
	}
	if err := checkJournal(filepath.Join(t.TempDir(), "nope.jsonl"), ""); err == nil {
		t.Error("missing file accepted")
	}
}

// engineJournal renders record bodies as an engine journal numbered from 1.
func engineJournal(bodies []string) string {
	var b strings.Builder
	for i, body := range bodies {
		fmt.Fprintf(&b, `{"seq":%d,"wall_us":0,%s}`+"\n", i+1, body)
	}
	return b.String()
}

// TestCheckJournalReconcilesRunEnd: an engine journal that ends in run_end
// must hold the records run_end counts. Each holed variant of a clean
// fixture lacks one record, as a journal that lagged its checkpoints lost
// them — a first delivery, an admission, a revision, a checkpoint — and is
// renumbered, so it still validates structurally.
func TestCheckJournalReconcilesRunEnd(t *testing.T) {
	clean := []string{
		`"type":"run_start","data":{"windows":3}`,
		`"type":"admission","data":{"t":5,"atom":"a","verdict":"admitted-late"}`,
		`"type":"window","data":{"index":0,"revision":0}`,
		`"type":"checkpoint","data":{"consumed":4,"windows":1,"bytes":100}`,
		`"type":"admission","data":{"t":5,"atom":"a","verdict":"duplicate"}`,
		`"type":"admission","data":{"t":1,"atom":"b","verdict":"too-late"}`,
		`"type":"window","data":{"index":0,"revision":1}`,
		`"type":"window","data":{"index":1,"revision":0}`,
		`"type":"checkpoint","data":{"consumed":8,"windows":2,"bytes":100}`,
		`"type":"window","data":{"index":2,"revision":0}`,
		`"type":"run_end","data":{"late":1,"duplicates":1,"dropped":1,"revisions":1,"checkpoints":2}`,
	}
	if err := checkJournal(writeJournal(t, engineJournal(clean)), ""); err != nil {
		t.Fatal(err)
	}
	for i, what := range []string{1: "admitted-late", 2: "first delivery of window 0", 3: "checkpoint",
		4: "duplicate", 5: "too-late", 6: "revision", 7: "first delivery of window 1"} {
		if what == "" {
			continue
		}
		holed := append(append([]string(nil), clean[:i]...), clean[i+1:]...)
		path := writeJournal(t, engineJournal(holed))
		if _, err := journal.Validate(strings.NewReader(engineJournal(holed))); err != nil {
			t.Fatalf("without its %s record the fixture is structurally invalid: %v", what, err)
		}
		if err := checkJournal(path, ""); err == nil {
			t.Errorf("a journal without its %s record was accepted", what)
		}
	}
}
