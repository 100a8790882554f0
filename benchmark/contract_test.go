package main

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in this package")

// benchmarkFile is the shape of BENCHMARK.json the builder's contract fixes.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"` // no bound: omitted when zero
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// TestBenchmarkJSON keeps BENCHMARK.json and the code that reports the
// metrics from drifting apart: the file is generated from the tables here
// (go test ./benchmark -run BenchmarkJSON -update) and checked on every run.
func TestBenchmarkJSON(t *testing.T) {
	want := benchmarkFile{
		Command:    []string{"sh", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: 28,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
		want.Workloads = append(want.Workloads, workloadDecl{w.name, w.why})
	}
	names := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if names[d.Name] {
			t.Errorf("metric %s is declared twice", d.Name)
		}
		names[d.Name] = true
	}
	for _, d := range perLayer {
		if d.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound; only end-to-end metrics do", d.Name)
		}
	}
	const path = "../BENCHMARK.json"
	if *update {
		raw, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json is out of step with report.go/inputs.go; regenerate with -update\n got %+v\nwant %+v", got, want)
	}
}
