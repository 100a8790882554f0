// Command rtectop is the terminal dashboard of a live (or recorded) RTEC
// run. It reads operational state from one of two sources and renders the
// same board: throughput, streaming lag, per-window and per-stratum latency
// and checkpoint activity.
//
//   - -metrics URL polls the /metrics endpoint served by the rtecd daemon
//     (Prometheus text exposition) every -interval, redrawing in place;
//     rates are computed from consecutive scrapes. A DAEMON section leads
//     the board with the lifecycle state, ingest admission counters
//     (throttles, unavailability, timeouts, rejects) and subscription
//     fan-out health; a SHARDS section follows the supervised engine.
//   - -journal file replays a recognition audit journal (JSONL) and
//     renders the run's final board once: the engine journal of
//     `rtecd -journal file` ("<file>.s0", whose window, checkpoint and
//     run_end records fill the board), or its lifecycle journal (whose
//     shards_start and shard_degraded records fill the SHARDS section).
//
// With -once the board is printed a single time without clearing the
// screen — the scripting/CI mode. -require takes comma-separated assertions
// ("name", "name>0", "name>=3", ...) evaluated against the board's metrics;
// any failed assertion exits non-zero, which makes `rtectop -once -require`
// a one-line liveness gate for scrapes and journals alike.
//
// Usage:
//
//	rtectop -metrics http://127.0.0.1:6060/metrics [-interval 2s] [-once] [-require expr,...]
//	rtectop -journal run.jsonl [-require expr,...]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"rtecgen/internal/clock"
	"rtecgen/internal/telemetry"
	"rtecgen/internal/telemetry/journal"
)

type options struct {
	metricsURL  string
	journalPath string
	interval    time.Duration
	once        bool
	require     string
}

func main() {
	var o options
	flag.StringVar(&o.metricsURL, "metrics", "", "poll this /metrics URL (Prometheus text exposition)")
	flag.StringVar(&o.journalPath, "journal", "", "replay this recognition audit journal (JSONL) instead of polling")
	flag.DurationVar(&o.interval, "interval", 2*time.Second, "poll interval in -metrics mode")
	flag.BoolVar(&o.once, "once", false, "render one board and exit instead of redrawing")
	flag.StringVar(&o.require, "require", "", `comma-separated assertions on board metrics, e.g. "rtec_windows_evaluated_total>0,rtec_stream_watermark_age"`)
	flag.Parse()
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rtectop:", err)
		os.Exit(1)
	}
}

func run(o options, stdout io.Writer) error {
	reqs, err := parseRequires(o.require)
	if err != nil {
		return err
	}
	switch {
	case o.journalPath != "" && o.metricsURL != "":
		return fmt.Errorf("-metrics and -journal are mutually exclusive")
	case o.journalPath != "":
		board, header, err := journalBoard(o.journalPath)
		if err != nil {
			return err
		}
		render(stdout, header, board, nil, 0)
		return checkRequires(board, reqs)
	case o.metricsURL != "":
		var prev map[string]*telemetry.PromMetric
		for poll := 1; ; poll++ {
			board, err := scrape(o.metricsURL)
			if err != nil {
				return err
			}
			header := fmt.Sprintf("%s (poll %d)", o.metricsURL, poll)
			if !o.once {
				fmt.Fprint(stdout, "\x1b[H\x1b[2J") // clear and home
			}
			render(stdout, header, board, prev, o.interval)
			if err := checkRequires(board, reqs); err != nil || o.once {
				return err
			}
			prev = board
			clock.Real().Sleep(o.interval)
		}
	default:
		return fmt.Errorf("one of -metrics or -journal is required")
	}
}

// scrape fetches and parses one exposition.
func scrape(url string) (map[string]*telemetry.PromMetric, error) {
	res, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d", url, res.StatusCode)
	}
	board, err := telemetry.ParsePrometheus(res.Body)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", url, err)
	}
	return board, nil
}

// lagBuckets mirror the engine's event-time lag histogram bounds, so a
// journal replay buckets emit lags the way a live scrape would.
var lagBuckets = []float64{0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000}

// journalBoard derives the dashboard metrics of a recorded run from its
// audit journal, under the same names a live scrape exposes.
func journalBoard(path string) (map[string]*telemetry.PromMetric, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	recs, err := journal.Read(f)
	if err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}

	var windows, revisions, firsts, writes float64
	var ckptBytes float64
	var emitLags []float64
	var shards, degraded float64
	var end struct {
		Accepted   float64 `json:"accepted"`
		Late       float64 `json:"late"`
		Duplicates float64 `json:"duplicates"`
		Dropped    float64 `json:"dropped"`
	}
	var start struct {
		Windows  int     `json:"windows"`
		Window   float64 `json:"window"`
		Slide    float64 `json:"slide"`
		MaxDelay float64 `json:"max_delay"`
	}
	haveEnd := false
	for _, rec := range recs {
		switch rec.Type {
		case "run_start":
			_ = unmarshalData(rec.Data, &start)
		case "window":
			var w struct {
				Revision int     `json:"revision"`
				EmitLag  float64 `json:"emit_lag"`
			}
			if err := unmarshalData(rec.Data, &w); err != nil {
				return nil, "", fmt.Errorf("%s: seq %d: %w", path, rec.Seq, err)
			}
			windows++
			if w.Revision > 0 {
				revisions++
			} else {
				firsts++
			}
			emitLags = append(emitLags, w.EmitLag)
		case "checkpoint":
			var c struct {
				Bytes float64 `json:"bytes"`
			}
			_ = unmarshalData(rec.Data, &c)
			writes++
			ckptBytes += c.Bytes
		case "shards_start":
			var s struct {
				Shards float64 `json:"shards"`
			}
			_ = unmarshalData(rec.Data, &s)
			shards = s.Shards
		case "shard_degraded":
			degraded++
		case "run_end":
			haveEnd = true
			_ = unmarshalData(rec.Data, &end)
		}
	}

	m := map[string]*telemetry.PromMetric{}
	put := func(name, typ string, v float64) {
		m[name] = &telemetry.PromMetric{Name: name, Type: typ, Value: v}
	}
	put("rtec_windows_evaluated_total", "counter", windows)
	put("rtec_revisions_total", "counter", revisions)
	if haveEnd {
		put("rtec_events_ingested_total", "counter", end.Accepted)
		put("rtec_late_events_total", "counter", end.Late)
		put("rtec_duplicate_events_total", "counter", end.Duplicates)
		put("rtec_dropped_events_total", "counter", end.Dropped)
	}
	if writes > 0 {
		put("rtec_checkpoint_writes_total", "counter", writes)
		put("rtec_checkpoint_bytes", "counter", ckptBytes)
	}
	if shards > 0 || degraded > 0 {
		put("rtec_shard_degraded", "gauge", degraded)
	}
	m["rtec_window_emit_lag"] = histMetric("rtec_window_emit_lag", lagBuckets, emitLags)

	header := fmt.Sprintf("journal %s — %d records, %d/%d windows planned, ω=%g slide=%g delay≤%g",
		path, len(recs), int(firsts), start.Windows, start.Window, start.Slide, start.MaxDelay)
	return m, header, nil
}

func unmarshalData(data []byte, v any) error {
	return json.Unmarshal(data, v)
}

// histMetric builds a cumulative histogram family from raw observations.
func histMetric(name string, bounds, obs []float64) *telemetry.PromMetric {
	m := &telemetry.PromMetric{Name: name, Type: "histogram"}
	counts := make([]float64, len(bounds)+1)
	for _, v := range obs {
		m.Sum += v
		i := sort.SearchFloat64s(bounds, v) // first bound >= v
		if i < len(bounds) && bounds[i] < v {
			i++
		}
		counts[i]++
	}
	var cum float64
	for i, b := range bounds {
		cum += counts[i]
		m.Buckets = append(m.Buckets, telemetry.PromBucket{LE: b, Cumulative: cum})
	}
	cum += counts[len(bounds)]
	m.Buckets = append(m.Buckets, telemetry.PromBucket{LE: math.Inf(1), Cumulative: cum})
	m.Count = cum
	return m
}

// render draws one board. prev (from the previous poll) and dt enable
// per-second rates; both are zero in -once and journal modes.
func render(w io.Writer, header string, m, prev map[string]*telemetry.PromMetric, dt time.Duration) {
	fmt.Fprintf(w, "rtectop — %s\n\n", header)

	val := func(name string) (float64, bool) {
		pm, ok := m[name]
		if !ok {
			return 0, false
		}
		return pm.Value, true
	}
	rate := func(name string) string {
		if prev == nil || dt <= 0 {
			return ""
		}
		pm, ok := m[name]
		pp, okp := prev[name]
		if !ok || !okp {
			return ""
		}
		return fmt.Sprintf("  (%.1f/s)", (pm.Value-pp.Value)/dt.Seconds())
	}
	line := func(label, name string) {
		if v, ok := val(name); ok {
			fmt.Fprintf(w, "  %-20s %12.0f%s\n", label, v, rate(name))
		}
	}

	if st, ok := val("serve_state"); ok {
		name := "?"
		if i := int(st); i >= 0 && i < len(daemonStates) {
			name = daemonStates[i]
		}
		queue, _ := val("serve_ingest_queue")
		fmt.Fprintln(w, "DAEMON")
		fmt.Fprintf(w, "  state %s  ingest queue %.0f\n", name, queue)
		line("ingest requests", "serve_ingest_requests_total")
		line("ingest events", "serve_ingest_events_total")
		line("windows published", "serve_windows_published_total")
		throttled, _ := val("serve_ingest_throttled_total")
		unavailable, _ := val("serve_ingest_unavailable_total")
		timeouts, _ := val("serve_ingest_timeouts_total")
		rejected, _ := val("serve_ingest_rejected_total")
		fmt.Fprintf(w, "  %-20s %.0f / %.0f / %.0f / %.0f\n",
			"429/503/timeout/400", throttled, unavailable, timeouts, rejected)
		if bad, ok := val("stream_badrows_total"); ok && bad > 0 {
			fmt.Fprintf(w, "  %-20s %12.0f\n", "quarantined rows", bad)
		}
		active, _ := val("serve_subs_active")
		delivered, _ := val("serve_subs_delivered_total")
		dropped, _ := val("serve_subs_dropped_total")
		evicted, _ := val("serve_subs_evicted_total")
		fmt.Fprintf(w, "  subscribers %.0f  delivered %.0f%s  dropped %.0f  evicted %.0f\n",
			active, delivered, rate("serve_subs_delivered_total"), dropped, evicted)
		fmt.Fprintln(w)
	}

	fmt.Fprintln(w, "THROUGHPUT")
	line("windows evaluated", "rtec_windows_evaluated_total")
	line("events ingested", "rtec_events_ingested_total")
	line("revisions", "rtec_revisions_total")
	late, _ := val("rtec_late_events_total")
	dup, _ := val("rtec_duplicate_events_total")
	drop, _ := val("rtec_dropped_events_total")
	fmt.Fprintf(w, "  %-20s %.0f / %.0f / %.0f\n", "late / dup / dropped", late, dup, drop)

	if reused, ok := val("rtec_delta_reused_total"); ok {
		dirty, _ := val("rtec_delta_dirty_total")
		expired, _ := val("rtec_delta_expired_total")
		ratio, _ := val("rtec_delta_reuse_ratio")
		installed, _ := val("rtec_delta_installed_total")
		fmt.Fprintln(w, "\nDELTA")
		fmt.Fprintf(w, "  reuse %.1f%%  reused %.0f%s  dirty %.0f  expired %.0f  installed %.0f\n",
			ratio, reused, rate("rtec_delta_reused_total"), dirty, expired, installed)
	}

	if _, ok := val("rtec_stream_frontier"); ok {
		fr, _ := val("rtec_stream_frontier")
		wm, _ := val("rtec_stream_watermark")
		age, _ := val("rtec_stream_watermark_age")
		occ, _ := val("rtec_reorder_occupancy")
		hw, _ := val("rtec_reorder_high_water")
		fmt.Fprintln(w, "\nSTREAM LAG")
		fmt.Fprintf(w, "  frontier %.0f  watermark %.0f  watermark age %.0f\n", fr, wm, age)
		fmt.Fprintf(w, "  reorder occupancy %.0f  (high water %.0f)\n", occ, hw)
	}

	fmt.Fprintln(w, "\nLATENCY")
	histLine(w, m, "emit lag", "rtec_window_emit_lag", "")
	histLine(w, m, "arrival lag", "rtec_stream_arrival_lag", "")
	histLine(w, m, "window e2e", "rtec_window_e2e_micros", "µs")
	for _, name := range stratumNames(m) {
		histLine(w, m, "stratum "+strings.TrimPrefix(name, "rtec_stratum_micros_"), name, "µs")
	}

	if writes, ok := val("rtec_checkpoint_writes_total"); ok && writes > 0 {
		restores, _ := val("rtec_checkpoint_restores_total")
		bytes, _ := val("rtec_checkpoint_bytes")
		fmt.Fprintln(w, "\nCHECKPOINTS")
		fmt.Fprintf(w, "  writes %.0f  restores %.0f  bytes %.0f\n", writes, restores, bytes)
	}

	degraded, haveDegraded := val("rtec_shard_degraded")
	consumed, haveConsumed := val("rtec_shard_consumed")
	if haveDegraded || haveConsumed {
		fmt.Fprintln(w, "\nSHARDS")
		fmt.Fprintf(w, "  degraded %.0f\n", degraded)
		if haveConsumed {
			windows, _ := val("rtec_shard_windows")
			queue, _ := val("rtec_shard_queue_depth")
			fmt.Fprintf(w, "  consumed %.0f  windows %.0f  queue %.0f\n", consumed, windows, queue)
		}
	}
}

// daemonStates mirrors the rtecd lifecycle encoding behind the serve_state
// gauge (see internal/serve).
var daemonStates = [...]string{"starting", "ready", "draining", "suspended", "finishing", "finished"}

// histLine prints one latency row: count, mean, p50, p95.
func histLine(w io.Writer, m map[string]*telemetry.PromMetric, label, name, unit string) {
	pm, ok := m[name]
	if !ok || pm.Type != "histogram" {
		return
	}
	hs := pm.Snapshot()
	if hs.Count == 0 {
		fmt.Fprintf(w, "  %-14s n=0\n", label)
		return
	}
	mean := hs.Sum / float64(hs.Count)
	fmt.Fprintf(w, "  %-14s n=%-8d mean %.1f%s  p50 %.1f%s  p95 %.1f%s\n",
		label, hs.Count, mean, unit, hs.Quantile(0.50), unit, hs.Quantile(0.95), unit)
}

var stratumRE = regexp.MustCompile(`^rtec_stratum_micros_s(\d+)$`)

// stratumNames returns the per-stratum histogram families in stratum order.
func stratumNames(m map[string]*telemetry.PromMetric) []string {
	var names []string
	for name := range m {
		if stratumRE.MatchString(name) {
			names = append(names, name)
		}
	}
	sort.Slice(names, func(i, j int) bool {
		a, _ := strconv.Atoi(stratumRE.FindStringSubmatch(names[i])[1])
		b, _ := strconv.Atoi(stratumRE.FindStringSubmatch(names[j])[1])
		return a < b
	})
	return names
}

// requireExpr is one -require assertion: a metric that must exist, with an
// optional comparison on its value (histograms compare on their count).
type requireExpr struct {
	name, op string
	want     float64
}

var opRE = regexp.MustCompile(`^([A-Za-z_:][A-Za-z0-9_:]*)\s*(>=|<=|!=|==|=|>|<)?\s*(.*)$`)

func parseRequires(s string) ([]requireExpr, error) {
	var out []requireExpr
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		m := opRE.FindStringSubmatch(part)
		if m == nil {
			return nil, fmt.Errorf("bad -require expression %q", part)
		}
		e := requireExpr{name: m[1], op: m[2]}
		if e.op == "=" {
			e.op = "=="
		}
		if e.op == "" {
			if m[3] != "" {
				return nil, fmt.Errorf("bad -require expression %q", part)
			}
		} else {
			v, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				return nil, fmt.Errorf("bad -require value in %q: %w", part, err)
			}
			e.want = v
		}
		out = append(out, e)
	}
	return out, nil
}

func checkRequires(m map[string]*telemetry.PromMetric, reqs []requireExpr) error {
	for _, e := range reqs {
		pm, ok := m[e.name]
		if !ok {
			return fmt.Errorf("require failed: metric %q absent", e.name)
		}
		if e.op == "" {
			continue
		}
		got := pm.Value
		if pm.Type == "histogram" {
			got = pm.Count
		}
		pass := false
		switch e.op {
		case ">":
			pass = got > e.want
		case ">=":
			pass = got >= e.want
		case "<":
			pass = got < e.want
		case "<=":
			pass = got <= e.want
		case "==":
			pass = got == e.want
		case "!=":
			pass = got != e.want
		}
		if !pass {
			return fmt.Errorf("require failed: %s = %g, want %s %g", e.name, got, e.op, e.want)
		}
	}
	return nil
}
