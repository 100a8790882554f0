package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"rtecgen/internal/parser"
	"rtecgen/internal/rtec"
	"rtecgen/internal/stream"
)

const testED = `
inputEvent(entersArea(_, _)).
inputEvent(leavesArea(_, _)).
areaType(a1, fishing).
areaType(a2, anchorage).

initiatedAt(withinArea(Vl, AreaType)=true, T) :-
    happensAt(entersArea(Vl, AreaID), T),
    areaType(AreaID, AreaType).

terminatedAt(withinArea(Vl, AreaType)=true, T) :-
    happensAt(leavesArea(Vl, AreaID), T),
    areaType(AreaID, AreaType).
`

// testEvents is an in-order stream of n area crossings by six vessels over
// [0, 1000).
func testEvents(n int) stream.Stream {
	r := rand.New(rand.NewSource(7))
	kinds := []string{"entersArea", "leavesArea"}
	events := make(stream.Stream, n)
	for i := range events {
		atom := fmt.Sprintf("%s(v%d, a%d)", kinds[r.Intn(2)], 1+r.Intn(6), 1+r.Intn(2))
		events[i] = stream.Event{Time: int64(i * 1000 / n), Atom: parser.MustParseTerm(atom)}
	}
	return events
}

// TestDaemonMatchesBatchEngine runs the daemon in-process behind a small
// shard queue, POSTs a stream many times the queue's size in 20-line
// batches, and requires every batch to be acknowledged 200 and the /finish
// CSV to be the batch engine's over the same stream.
func TestDaemonMatchesBatchEngine(t *testing.T) {
	dir := t.TempDir()
	edPath := filepath.Join(dir, "ed.rtec")
	if err := os.WriteFile(edPath, []byte(testED), 0o644); err != nil {
		t.Fatal(err)
	}
	events := testEvents(600)
	o := options{
		edPath: edPath, listen: "127.0.0.1:0", strict: true,
		window: 100, start: 0, end: 1000,
		checkpoint: filepath.Join(dir, "d.ckpt"), checkpointEvery: 1,
		shards: 1, shardQueue: 16, shardOverflow: "block",
	}

	// run reports its address on stderr and returns once a signal drained it.
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	exited := make(chan error, 1)
	go func() {
		exited <- run(o, pw)
		pw.Close()
	}()
	lines := bufio.NewScanner(pr)
	var addr string
	for addr == "" && lines.Scan() {
		addr, _ = strings.CutPrefix(lines.Text(), "rtecd: listening on ")
	}
	if addr == "" {
		t.Fatalf("daemon never reported its address: %v", <-exited)
	}
	go io.Copy(io.Discard, pr) //nolint:errcheck // keeps the daemon's stderr from filling the pipe

	post := func(path string, body []byte) (int, []byte) {
		t.Helper()
		res, err := http.Post("http://"+addr+path, "application/x-ndjson", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		out, err := io.ReadAll(res.Body)
		if err != nil {
			t.Fatal(err)
		}
		return res.StatusCode, out
	}
	for i := 0; i < len(events); i += 20 {
		var body bytes.Buffer
		if err := events[i:min(i+20, len(events))].WriteNDJSON(&body); err != nil {
			t.Fatal(err)
		}
		if code, out := post("/ingest", body.Bytes()); code != http.StatusOK {
			t.Fatalf("batch at line %d answered %d: %s", i, code, out)
		}
	}
	code, got := post("/finish", nil)
	if code != http.StatusOK {
		t.Fatalf("/finish answered %d: %s", code, got)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := <-exited; err != nil {
		t.Fatalf("daemon did not drain cleanly: %v", err)
	}

	ed, err := parser.ParseEventDescription(testED)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := rtec.New(ed, rtec.Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := eng.Run(events, rtec.RunOptions{Window: o.window, Start: o.start, End: o.end})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := rec.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("daemon CSV differs from the batch engine's:\n%s\nvs\n%s", got, want.Bytes())
	}
}
