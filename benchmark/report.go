package main

import (
	"fmt"
	"io"
)

// metricDef is one row of BENCHMARK.json: the names below are the terms in
// which every later performance claim on this repo is stated.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees, on every workload. Bounds are
// the share of the parent's median by which a metric may worsen; they are as
// wide as they are because CPU-bound time on the 2-vCPU sandbox moves by
// 15–20 % between quiet and contended minutes (README.md has the measured
// spreads), and a bound narrower than the host's own noise gates nothing.
//
// Two groups of user-visible numbers are deliberately not here. cpu_s is
// printed by every untraced run but carries no bound: its ten-seed spread on
// this host (0.09–0.23) reaches the contract's 0.25 ceiling, so as a gate it
// would reject honest changes. And the daemon-only numbers (acknowledgement
// and emission latency, allocations per event) cannot be here — every
// workload must report every end-to-end metric and figures has none of them —
// so they are the rtecd.* rung of perLayer, measured the same way against the
// same real process.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.24},
	{"peak_rss_mb", "MB", "lower", 0.24},
}

// perLayer is the traced run: one group per rung of the ladder, outermost
// (the real process) first. A workload that bypasses a layer reports 0 for
// that layer's metrics.
var perLayer = []metricDef{
	{Name: "rtecd.ready_ms", Unit: "ms", Better: "lower"},
	{Name: "rtecd.wall_s", Unit: "s", Better: "lower"},
	{Name: "rtecd.cpu_s", Unit: "s", Better: "lower"},
	{Name: "rtecd.allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "rtecd.ack_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "rtecd.ack_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "rtecd.emit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "rtecd.emit_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.sched_lag_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},

	{Name: "stream.decode.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "stream.decode.allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "stream.decode.bytes_in", Unit: "bytes", Better: "lower"},

	{Name: "stream.reorder.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "stream.reorder.late", Unit: "count", Better: "lower"},
	{Name: "stream.reorder.duplicates", Unit: "count", Better: "lower"},
	{Name: "stream.reorder.high_water", Unit: "count", Better: "lower"},

	{Name: "rtec.load.ms", Unit: "ms", Better: "lower"},

	{Name: "rtec.eval.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "rtec.eval.allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "rtec.eval.bytes_per_event", Unit: "bytes", Better: "lower"},
	{Name: "rtec.eval.windows", Unit: "count", Better: "lower"},
	{Name: "rtec.eval.window_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "rtec.eval.window_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "rtec.eval.delta_ratio", Unit: "ratio", Better: "higher"},
	{Name: "rtec.eval.workers_ratio", Unit: "ratio", Better: "higher"},

	{Name: "rtec.stream.self_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "rtec.stream.allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "rtec.stream.admit_p50_us", Unit: "us", Better: "lower"},
	{Name: "rtec.stream.first_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "rtec.stream.late_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "rtec.stream.late_share", Unit: "ratio", Better: "lower"},
	{Name: "rtec.stream.revisions", Unit: "count", Better: "lower"},
	{Name: "rtec.stream.revision_yield", Unit: "ratio", Better: "higher"},

	{Name: "rtec.checkpoint.self_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "rtec.checkpoint.writes", Unit: "count", Better: "lower"},
	{Name: "rtec.checkpoint.bytes", Unit: "bytes", Better: "lower"},
	{Name: "rtec.checkpoint.ms_per_write", Unit: "ms", Better: "lower"},

	{Name: "journal.self_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "journal.bytes", Unit: "bytes", Better: "lower"},
	{Name: "journal.records", Unit: "count", Better: "lower"},

	{Name: "shard.self_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "shard.ingest_wait_s", Unit: "s", Better: "lower"},
	{Name: "shard.ingest_p99_us", Unit: "us", Better: "lower"},
	{Name: "shard.queue_overflow", Unit: "count", Better: "lower"},
	{Name: "shard.restarts", Unit: "count", Better: "lower"},
	{Name: "shard.skew", Unit: "ratio", Better: "lower"},
	{Name: "shard.s2_ratio", Unit: "ratio", Better: "lower"},
	{Name: "shard.recall_vs_unsharded", Unit: "ratio", Better: "higher"},

	{Name: "serve.self_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "serve.sse_bytes", Unit: "bytes", Better: "lower"},
	{Name: "serve.frames", Unit: "count", Better: "lower"},
	{Name: "serve.frames_missing", Unit: "count", Better: "lower"},
	{Name: "serve.status_429", Unit: "count", Better: "lower"},
	{Name: "serve.status_503", Unit: "count", Better: "lower"},

	{Name: "maritime.scenario_ms", Unit: "ms", Better: "lower"},
	{Name: "maritime.events", Unit: "count", Better: "lower"},
	{Name: "prompt.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "parser.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.lint_ms", Unit: "ms", Better: "lower"},
	{Name: "similarity.score_ms", Unit: "ms", Better: "lower"},
	{Name: "correct.fix_ms", Unit: "ms", Better: "lower"},
	{Name: "eval.accuracy_ms", Unit: "ms", Better: "lower"},
	{Name: "eval.refine_ms", Unit: "ms", Better: "lower"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one workload run: it prints every metric by name with its
// unit as it is set, and renders the JSON result at the end.
type report struct {
	w         io.Writer
	workload  string
	defs      []metricDef
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
}

func newReport(w io.Writer, workload string, traced bool, seed int64) *report {
	r := &report{w: w, workload: workload, defs: endToEnd, correct: true, metrics: map[string]metric{}}
	mode := "end to end"
	if traced {
		r.defs, mode = perLayer, "traced"
	}
	fmt.Fprintf(w, "\n== %s (%s, seed %d)\n", workload, mode, seed)
	return r
}

// set records a metric of the run's contract list; an undeclared name is a
// bug in the benchmark, not a condition of the run.
func (r *report) set(name string, v float64) {
	for _, d := range r.defs {
		if d.Name == name {
			r.metrics[name] = metric{Value: v, Unit: d.Unit}
			r.info(name, v, d.Unit, "")
			return
		}
	}
	panic("benchmark: metric " + name + " is not declared in report.go")
}

// info prints a number that is not part of this run's JSON.
func (r *report) info(name string, v float64, unit, note string) {
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Fprintf(r.w, "  %-34s %14.4f %s%s\n", name, v, unit, note)
}

func (r *report) note(format string, args ...any) {
	fmt.Fprintf(r.w, "  "+format+"\n", args...)
}

func sampleNote(xs []float64) string { return fmt.Sprintf("n=%d", len(xs)) }

// latency prints a pooled latency sample by the reporting rule: the median,
// the p90 when supported, and the highest percentile the sample supports.
func (r *report) latency(prefix string, xsMS []float64) {
	r.info(prefix+"_p50_ms", quantile(xsMS, 0.5), "ms", sampleNote(xsMS))
	r.info(prefix+"_p90_ms", tail(xsMS, 0.90), "ms", "0 = fewer than 10 samples beyond it")
	if hi := highestSupported(len(xsMS)); hi > 0.90 {
		r.info(fmt.Sprintf("%s_p%g_ms", prefix, hi*100), quantile(xsMS, hi), "ms", "highest percentile with 10 samples beyond it")
	}
}

// finish completes the contract's metric list: a layer the workload
// bypasses did no work, so its metrics read 0.
func (r *report) finish() {
	for _, d := range r.defs {
		if _, ok := r.metrics[d.Name]; !ok {
			r.metrics[d.Name] = metric{Unit: d.Unit}
		}
	}
	line := fmt.Sprintf("  correct=%v attempted=%d failed=%d", r.correct && r.failed == 0, r.attempted, r.failed)
	fmt.Fprintln(r.w, line)
}

// merge folds a finished run into the total; with several runs in one
// invocation the names are qualified by workload.
func (r *report) merge(run *report, qualify bool) {
	r.correct = r.correct && run.correct
	r.attempted += run.attempted
	r.failed += run.failed
	for name, m := range run.metrics {
		if qualify {
			name = run.workload + "/" + name
		}
		r.metrics[name] = m
	}
}

func (r *report) result() result {
	return result{Correct: r.correct && r.failed == 0, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: r.metrics}
}
