package rtec

import (
	"fmt"
	"time"

	"rtecgen/internal/intervals"
	"rtecgen/internal/stream"
	"rtecgen/internal/telemetry"
	"rtecgen/internal/telemetry/journal"
)

// lagBounds bucket event-time lags (time-points, not wall time): tight at
// the in-order end, decade-spaced into the deep-disorder tail.
var lagBounds = []float64{0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000}

// streamObs carries the per-run observability state of a streaming run: the
// lag instruments (hoisted once — a registry lookup takes the registry
// mutex, so the ingest hot path must touch only the lock-free instruments)
// and the optional audit journal.
type streamObs struct {
	frontier   *telemetry.Gauge
	watermark  *telemetry.Gauge
	wmAge      *telemetry.Gauge
	occupancy  *telemetry.Gauge
	highWater  *telemetry.Gauge
	arrivalLag *telemetry.Histogram
	emitLag    *telemetry.Histogram
	e2eMicros  *telemetry.Histogram
	ingested   *telemetry.Counter
	journal    *journal.Writer
}

// instrumentHelp holds the help texts of the engine's instruments, by name.
var instrumentHelp = map[string]string{
	"rtec.stream.frontier":      "event-time frontier: maximum event time admitted so far",
	"rtec.stream.watermark":     "watermark (frontier minus the bounded delay): the past is closed below it",
	"rtec.stream.watermark_age": "frontier minus watermark, in time-points (the revisable span)",
	"rtec.reorder.occupancy":    "events currently held in the reorder buffer",
	"rtec.reorder.high_water":   "maximum reorder-buffer occupancy observed this run",
	"rtec.stream.arrival_lag":   "event-time lag of each arrival behind the frontier, in time-points",
	"rtec.window.emit_lag":      "frontier minus query time at each window delivery, in time-points",
	"rtec.window.e2e_micros":    "wall-clock latency of evaluating and delivering one window",
	"rtec.windows.evaluated":    "window evaluations, including re-evaluations forced by late events",
	"rtec.events.ingested":      "events admitted (in-order plus late-within-bound): admissions by this process",
	"rtec.revisions":            "re-deliveries of already-emitted windows caused by late events",
	"rtec.delta.reused":         "anchor events whose cached rule effects stand (the previous window's on a slide, the window's own on a revision), replayed or under an installed fluent",
	"rtec.delta.dirty":          "anchor events recomputed because a slide or a late arrival admitted or invalidated them",
	"rtec.delta.expired":        "cached anchor times dropped at the expired left edge of the slide",
	"rtec.delta.installed":      "fluent evaluations of a revision answered from the window's own carried lists because the fluent's inputs did not change",
	"rtec.delta.reuse_ratio":    "percentage of anchor-event work avoided by delta reuse in the last window evaluated",
	"rtec.shared.hits":          "fluent × window results installed from the fluent table of a Prepared shared by several engines",
	"rtec.shared.misses":        "fluent × window results evaluated and published to the fluent table of a shared Prepared",
}

// describeInstruments registers the help texts. Nil-safe.
func describeInstruments(tel *telemetry.Telemetry) {
	if tel == nil {
		return
	}
	for name, help := range instrumentHelp {
		tel.Registry.Describe(name, help)
	}
}

// newStreamObs resolves the lag instruments and registers their help texts.
// tel may be nil (observability disabled): every instrument is then nil and
// every observation degrades to a no-op, but the journal still records.
func newStreamObs(tel *telemetry.Telemetry, jw *journal.Writer) *streamObs {
	var reg *telemetry.Registry
	if tel != nil {
		reg = tel.Registry
	}
	describeInstruments(tel)
	o := &streamObs{journal: jw}
	if reg != nil {
		o.frontier = reg.Gauge("rtec.stream.frontier")
		o.watermark = reg.Gauge("rtec.stream.watermark")
		o.wmAge = reg.Gauge("rtec.stream.watermark_age")
		o.occupancy = reg.Gauge("rtec.reorder.occupancy")
		o.highWater = reg.Gauge("rtec.reorder.high_water")
		o.arrivalLag = reg.Histogram("rtec.stream.arrival_lag", lagBounds)
		o.emitLag = reg.Histogram("rtec.window.emit_lag", lagBounds)
		o.e2eMicros = reg.Histogram("rtec.window.e2e_micros", nil)
		o.ingested = reg.Counter("rtec.events.ingested")
	}
	return o
}

// --- journal payloads ------------------------------------------------------
//
// Every payload is built from event-time state only (no wall readings, no
// map iteration orders — encoding/json sorts map keys), so a journal is as
// deterministic as the recognition itself.

type journalRunStart struct {
	EDSum    string `json:"ed_sum"`
	Windows  int    `json:"windows"`
	Window   int64  `json:"window"`
	Slide    int64  `json:"slide"`
	Start    int64  `json:"start"`
	End      int64  `json:"end"`
	MaxDelay int64  `json:"max_delay"`
	// Consumed is always 0: a resumed runner journals no run_start. The
	// field keeps the record's layout.
	Consumed int `json:"consumed"`
}

// journalAdmission records one degradation verdict of the reorder buffer.
// In-order admissions are not journalled: they are the normal case, counted
// by the metrics, and would dwarf the audit trail.
type journalAdmission struct {
	T       int64  `json:"t"`
	Atom    string `json:"atom"`
	Verdict string `json:"verdict"`
}

type journalWindow struct {
	Index       int   `json:"index"`
	WindowStart int64 `json:"window_start"`
	QueryTime   int64 `json:"query_time"`
	Revision    int   `json:"revision"`
	// EmitLag is frontier minus query time at delivery (0 when the frontier
	// never reached the query time, i.e. end-of-stream flush).
	EmitLag   int64 `json:"emit_lag"`
	Fluents   int   `json:"fluents"`
	Intervals int64 `json:"intervals"`
	// Asserted holds the intervals this delivery adds over the previous one
	// (everything recognised, for a first delivery); Retracted the intervals
	// the previous delivery reported that no longer hold. Keyed by FVP.
	Asserted  map[string][][2]int64 `json:"asserted,omitempty"`
	Retracted map[string][][2]int64 `json:"retracted,omitempty"`
}

type journalCheckpoint struct {
	Consumed int `json:"consumed"`
	Windows  int `json:"windows"`
	Bytes    int `json:"bytes"`
}

type journalRunEnd struct {
	Observed    int64 `json:"observed"`
	Accepted    int64 `json:"accepted"`
	Late        int64 `json:"late"`
	Duplicates  int64 `json:"duplicates"`
	Dropped     int64 `json:"dropped"`
	Revisions   int64 `json:"revisions"`
	Checkpoints int64 `json:"checkpoints"`
}

// ivalsOf flattens an interval map into the journal's [start, end) form.
func ivalsOf(m map[string]intervals.List) map[string][][2]int64 {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string][][2]int64, len(m))
	for k, list := range m {
		pairs := make([][2]int64, 0, len(list))
		for _, iv := range list {
			pairs = append(pairs, [2]int64{iv.Start, iv.End})
		}
		out[k] = pairs
	}
	return out
}

// --- streamRun observation hooks -------------------------------------------

// journalRunStart records the run plan once, on a fresh runner's first
// Ingest or Finish.
func (st *streamRun) journalRunStart() error {
	if st.ranStart {
		return nil
	}
	st.ranStart = true
	return st.obs.journal.Append("run_start", journalRunStart{
		EDSum:   st.eng.edFingerprint(),
		Windows: st.tl.n,
		Window:  st.tl.window, Slide: st.tl.slide,
		Start: st.tl.start, End: st.tl.end,
		MaxDelay: st.opts.MaxDelay,
	})
}

// observeAdmission updates the lag gauges after one Push and journals
// degradation verdicts (late, duplicate, too-late). text is the atom as Push
// rendered it; a too-late arrival, which Push does not render, is rendered
// here.
func (st *streamRun) observeAdmission(e stream.Event, verdict stream.Admission, text string) error {
	o := st.obs
	if frontier, ok := st.reorder.Frontier(); ok {
		wm, _ := st.reorder.Watermark()
		o.frontier.Set(frontier)
		o.watermark.Set(wm)
		o.wmAge.Set(frontier - wm)
		if lag := frontier - e.Time; lag >= 0 {
			o.arrivalLag.Observe(float64(lag))
		}
	}
	o.occupancy.Set(int64(st.reorder.Occupancy()))
	o.highWater.Set(int64(st.reorder.HighWater()))
	if verdict == stream.Admitted {
		return nil
	}
	if verdict == stream.TooLate {
		text = e.Atom.String()
	}
	return o.journal.Append("admission", journalAdmission{
		T: e.Time, Atom: text, Verdict: verdict.String(),
	})
}

// observeDelivery records one window delivery: the end-to-end wall latency,
// the event-time emit lag, and the journal window record with the
// assertion/retraction diff. prev is nil for a first delivery. A batch run
// observes nothing.
func (st *streamRun) observeDelivery(i int, prev *windowEval, retracted map[string]intervals.List, wall time.Duration) error {
	o := st.obs
	if o == nil {
		return nil
	}
	o.e2eMicros.ObserveDuration(wall)

	var emitLag int64
	if frontier, ok := st.reorder.Frontier(); ok && frontier > st.tl.q(i) {
		emitLag = frontier - st.tl.q(i)
	}
	o.emitLag.Observe(float64(emitLag))

	slot := &st.slots[i]
	asserted := slot.eval.recognised
	if prev != nil {
		asserted = prev.retractionsAgainst(slot.eval)
	}
	return o.journal.Append("window", journalWindow{
		Index:       i,
		WindowStart: st.tl.windowStart(i),
		QueryTime:   st.tl.q(i),
		Revision:    slot.revision,
		EmitLag:     emitLag,
		Fluents:     len(slot.eval.recognised),
		Intervals:   slot.eval.intervalCount(),
		Asserted:    ivalsOf(asserted),
		Retracted:   ivalsOf(retracted),
	})
}

// journalRunEnd records the final disorder statistics.
func (st *streamRun) journalRunEnd() error {
	s := st.stats
	return st.obs.journal.Append("run_end", journalRunEnd{
		Observed: s.Observed, Accepted: s.Accepted, Late: s.Late,
		Duplicates: s.Duplicates, Dropped: s.Dropped,
		Revisions: s.Revisions, Checkpoints: s.Checkpoints,
	})
}

// stratumHistName renders the per-stratum timing histogram name, shared by
// the evaluator and its tests.
func stratumHistName(level int) string {
	return fmt.Sprintf("rtec.stratum.micros.s%d", level)
}
