package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"rtecgen/internal/telemetry/journal"
)

var update = flag.Bool("update", false, "rewrite golden files")

// disorderStream arrives out of order within a delay bound of 15.
const disorderStream = "10,entersArea,v1,a1\n60,entersArea,v2,a1\n50,leavesArea,v1,a1\n"

// journalOpts is the pinned configuration of the golden journal run.
func journalOpts(ed, st, journalPath string) options {
	o := opts(ed, st)
	o.window, o.slide = 20, 20
	o.maxDelay = 15
	o.journalPath = journalPath
	return o
}

// TestJournalGolden pins the audit journal byte for byte: same-seed runs
// must journal identically, and the layout must match the committed golden
// (refresh with `go test ./cmd/rtec -run TestJournalGolden -update`).
func TestJournalGolden(t *testing.T) {
	ed := write(t, "ed.rtec", testED)
	st := write(t, "events.csv", disorderStream)

	runOnce := func(name string) []byte {
		path := filepath.Join(t.TempDir(), name)
		if err := run(journalOpts(ed, st, path), io.Discard, io.Discard); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := runOnce("a.jsonl"), runOnce("b.jsonl")
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed journals differ:\n%s\nvs\n%s", a, b)
	}
	if _, err := journal.Validate(bytes.NewReader(a)); err != nil {
		t.Fatalf("journal invalid: %v\n%s", err, a)
	}

	golden := filepath.Join("testdata", "journal.golden.jsonl")
	if *update {
		if err := os.WriteFile(golden, a, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, want) {
		t.Fatalf("journal deviates from the golden (refresh with -update if intended):\n%s\nwant:\n%s", a, want)
	}
}

// TestJournalWallClock checks that -journal-wall stamps real non-zero
// timestamps (and therefore opts out of byte-identical journals).
func TestJournalWallClock(t *testing.T) {
	ed := write(t, "ed.rtec", testED)
	st := write(t, "events.csv", disorderStream)
	path := filepath.Join(t.TempDir(), "wall.jsonl")
	o := journalOpts(ed, st, path)
	o.journalWall = true
	if err := run(o, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := journal.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.WallUS == 0 {
			t.Fatalf("wall-clock journal has a zero timestamp: %+v", rec)
		}
	}
}

// TestJournalCapped checks the -journal-cap plumbing end to end: the file
// stays bounded and ends in the explicit marker.
func TestJournalCapped(t *testing.T) {
	ed := write(t, "ed.rtec", testED)
	st := write(t, "events.csv", disorderStream)
	path := filepath.Join(t.TempDir(), "capped.jsonl")
	o := journalOpts(ed, st, path)
	o.journalCap = 300
	if err := run(o, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := journal.Validate(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("capped journal invalid: %v\n%s", err, data)
	}
	if !stats.Capped {
		t.Fatalf("journal not capped at %d bytes (wrote %d)", o.journalCap, len(data))
	}
}
