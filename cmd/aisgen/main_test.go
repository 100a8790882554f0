package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestRunDerivedEventsWithBackground(t *testing.T) {
	dir := t.TempDir()
	bg := filepath.Join(dir, "bg.rtec")
	gold := filepath.Join(dir, "gold.rtec")
	if err := run(io.Discard, 14, 7, 120, 1, false, bg, gold); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(bg)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"areaType(", "vesselType(", "thresholds(", "vessel("} {
		if !strings.Contains(string(data), frag) {
			t.Errorf("background file missing %q", frag)
		}
	}
	goldData, err := os.ReadFile(gold)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"initiatedAt(", "holdsFor(", "inputEvent("} {
		if !strings.Contains(string(goldData), frag) {
			t.Errorf("gold file missing %q", frag)
		}
	}
}

func TestRunRaw(t *testing.T) {
	if err := run(io.Discard, 14, 7, 300, 1, true, "", ""); err != nil {
		t.Fatal(err)
	}
}

// TestRepeat: -repeat 1 writes the scenario's bytes as they were before the
// flag existed (sha256 of the 14-vessel seed-7 stream at interval 120, derived
// and raw), and -repeat 3 writes that stream three times, copy c shifted by c
// times the scenario's span: its last report at 35 160 s plus one interval.
func TestRepeat(t *testing.T) {
	out := func(repeat int, raw bool) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := run(&buf, 14, 7, 120, repeat, raw, "", ""); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, tc := range []struct {
		raw  bool
		want string
	}{
		{false, "79c01d9283b82f80a1e5bae0074741af577b1ce2ab491e1eb23d734a7ed324b8"},
		{true, "be126bf5d89bc7dc9fc8273332f9f5ad63572fd65e140c40526a1bfc5dbb7518"},
	} {
		one := out(1, tc.raw)
		if got := fmt.Sprintf("%x", sha256.Sum256(one)); got != tc.want {
			t.Errorf("raw=%v: -repeat 1 output has sha256 %s, want %s", tc.raw, got, tc.want)
		}
		lines := strings.SplitAfter(string(one), "\n")
		lines = lines[:len(lines)-1]
		const span = 35160 + 120
		var want strings.Builder
		for c := 0; c < 3; c++ {
			for _, l := range lines {
				comma := strings.IndexByte(l, ',')
				ts, err := strconv.ParseInt(l[:comma], 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&want, "%d%s", ts+int64(c)*span, l[comma:])
			}
		}
		if got := out(3, tc.raw); string(got) != want.String() {
			t.Errorf("raw=%v: -repeat 3 is not three copies shifted by %d s", tc.raw, span)
		}
	}
	if err := run(io.Discard, 14, 7, 120, 0, false, "", ""); err == nil {
		t.Error("-repeat 0 was accepted")
	}
}
