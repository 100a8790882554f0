package figures

import (
	"strings"
	"testing"
)

func TestBarChart(t *testing.T) {
	out := BarChart("Figure X", []string{"h", "aM"}, []Series{
		{Name: "o1", Values: []float64{1.0, 0.5}},
		{Name: "GPT-4o", Values: []float64{0.0}},
	}, 10)
	if !strings.Contains(out, "Figure X") {
		t.Fatal("title missing")
	}
	if !strings.Contains(out, "██████████ 1.000") {
		t.Fatalf("full bar missing:\n%s", out)
	}
	if !strings.Contains(out, "█████····· 0.500") {
		t.Fatalf("half bar missing:\n%s", out)
	}
	// Missing value renders as zero.
	if !strings.Contains(out, "·········· 0.000") {
		t.Fatalf("empty bar missing:\n%s", out)
	}
}

func TestBarClipping(t *testing.T) {
	if got := bar(2.5, 4); got != "████" {
		t.Fatalf("overflow bar = %q", got)
	}
	if got := bar(-1, 4); got != "····" {
		t.Fatalf("negative bar = %q", got)
	}
}

func TestTable(t *testing.T) {
	out := Table([][]string{
		{"model", "f1"},
		{"o1", "1.000"},
		{"GPT-4o", "0.500"},
	})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "model") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Fatalf("separator = %q", lines[1])
	}
	if Table(nil) != "" {
		t.Fatal("empty table must render empty")
	}
}

func TestCSV(t *testing.T) {
	out := CSV([][]string{{"a", "b"}, {"1", "2"}})
	if out != "a,b\n1,2\n" {
		t.Fatalf("CSV = %q", out)
	}
}
