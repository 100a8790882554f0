package main

import (
	"os"
	"path/filepath"
	"testing"
)

const testStream = `10,entersArea,v1,a1
20,velocity,v1,3.0,90.0,90.0
30,leavesArea,v1,a1
40,entersArea,v2,a1
50,gap_start,v1
60,leavesArea,v2,a1
`

func writeStream(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "events.csv")
	if err := os.WriteFile(path, []byte(testStream), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunErrors(t *testing.T) {
	if err := run(options{}, os.Stderr); err == nil {
		t.Fatal("missing flags accepted")
	}
	in := writeStream(t)
	if err := run(options{in: in, out: filepath.Join(t.TempDir(), "o.csv"), maxDelay: -1}, os.Stderr); err == nil {
		t.Fatal("negative max-delay accepted")
	}
	if err := run(options{in: "/nonexistent.csv", out: filepath.Join(t.TempDir(), "o.csv")}, os.Stderr); err == nil {
		t.Fatal("missing input accepted")
	}
}
