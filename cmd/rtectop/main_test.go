package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtecgen/internal/serve"
	"rtecgen/internal/telemetry"
)

// liveRegistry populates a registry the way a streaming run would.
func liveRegistry() *telemetry.Registry {
	reg := telemetry.NewRegistry()
	reg.Counter("rtec.windows.evaluated").Add(24)
	reg.Counter("rtec.events.ingested").Add(100)
	reg.Counter("rtec.revisions").Add(2)
	reg.Counter("rtec.late_events").Add(3)
	reg.Gauge("rtec.stream.frontier").Set(250)
	reg.Gauge("rtec.stream.watermark").Set(230)
	reg.Gauge("rtec.stream.watermark_age").Set(20)
	reg.Gauge("rtec.reorder.occupancy").Set(4)
	reg.Gauge("rtec.reorder.high_water").Set(9)
	lag := reg.Histogram("rtec.window.emit_lag", []float64{1, 10, 100})
	for _, v := range []float64{0, 5, 5, 50} {
		lag.Observe(v)
	}
	s0 := reg.Histogram("rtec.stratum.micros.s0", []float64{100, 1000})
	s0.Observe(40)
	s1 := reg.Histogram("rtec.stratum.micros.s1", []float64{100, 1000})
	s1.Observe(400)
	reg.Gauge("rtec.shard.consumed").Set(100)
	reg.Gauge("rtec.shard.windows").Set(24)
	reg.Gauge("rtec.shard.queue.depth").Set(3)
	return reg
}

func TestScrapeModeRendersBoard(t *testing.T) {
	srv := httptest.NewServer(serve.NewServer(liveRegistry()).Handler())
	defer srv.Close()

	var buf bytes.Buffer
	o := options{metricsURL: srv.URL + "/metrics", once: true}
	if err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"windows evaluated              24",
		"frontier 250  watermark 230  watermark age 20",
		"reorder occupancy 4  (high water 9)",
		"emit lag       n=4",
		"stratum s0",
		"stratum s1",
		"SHARDS\n  degraded 0",
		"consumed 100  windows 24  queue 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("board missing %q:\n%s", want, out)
		}
	}
	// s0 must render before s1.
	if strings.Index(out, "stratum s0") > strings.Index(out, "stratum s1") {
		t.Errorf("strata out of order:\n%s", out)
	}
}

func TestScrapeModeRequires(t *testing.T) {
	srv := httptest.NewServer(serve.NewServer(liveRegistry()).Handler())
	defer srv.Close()

	o := options{metricsURL: srv.URL + "/metrics", once: true}
	o.require = "rtec_windows_evaluated_total>0,rtec_stream_watermark_age,rtec_window_emit_lag>=4"
	if err := run(o, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}

	for _, bad := range []string{
		"rtec_windows_evaluated_total>1000",
		"rtec_no_such_metric",
		"rtec_window_emit_lag==0",
	} {
		o.require = bad
		if err := run(o, &bytes.Buffer{}); err == nil {
			t.Errorf("require %q passed", bad)
		}
	}
}

const replayJournal = `{"seq":1,"wall_us":0,"type":"run_start","data":{"ed_sum":"ab","windows":3,"window":20,"slide":20,"start":0,"end":60,"max_delay":15,"consumed":0}}
{"seq":2,"wall_us":0,"type":"window","data":{"index":0,"window_start":0,"query_time":20,"revision":0,"emit_lag":30,"fluents":1,"intervals":1}}
{"seq":3,"wall_us":0,"type":"window","data":{"index":0,"window_start":0,"query_time":20,"revision":1,"emit_lag":5,"fluents":1,"intervals":1}}
{"seq":4,"wall_us":0,"type":"checkpoint","data":{"consumed":2,"windows":2,"bytes":512}}
{"seq":5,"wall_us":0,"type":"window","data":{"index":1,"window_start":20,"query_time":40,"revision":0,"emit_lag":0,"fluents":0,"intervals":0}}
{"seq":6,"wall_us":0,"type":"run_end","data":{"observed":6,"accepted":5,"late":1,"duplicates":1,"dropped":0,"revisions":1,"checkpoints":1}}
`

func writeReplay(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestJournalModeRendersBoard(t *testing.T) {
	var buf bytes.Buffer
	o := options{journalPath: writeReplay(t, replayJournal)}
	// The run observed 6 arrivals and accepted 5 (one duplicate): the board
	// counts what the live rtec.events.ingested counts, the accepted ones.
	o.require = "rtec_windows_evaluated_total==3,rtec_revisions_total==1,rtec_checkpoint_writes_total==1,rtec_window_emit_lag==3,rtec_events_ingested_total==5"
	if err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// The header counts windows delivered at least once: two of the three
	// planned, the revision of window 0 not among them.
	for _, want := range []string{
		"2/3 windows planned",
		"windows evaluated               3",
		"events ingested                 5",
		"late / dup / dropped 1 / 1 / 0",
		"emit lag       n=3",
		"writes 1  restores 0  bytes 512",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("board missing %q:\n%s", want, out)
		}
	}

	// Every planned window delivered, window 0 revised twice: the header
	// reads 3/3, never more windows than planned.
	revised := replayJournal[:strings.Index(replayJournal, `{"seq":6,`)] +
		`{"seq":6,"wall_us":0,"type":"window","data":{"index":0,"window_start":0,"query_time":20,"revision":2,"emit_lag":4,"fluents":1,"intervals":1}}
{"seq":7,"wall_us":0,"type":"window","data":{"index":2,"window_start":40,"query_time":60,"revision":0,"emit_lag":0,"fluents":0,"intervals":0}}
{"seq":8,"wall_us":0,"type":"run_end","data":{"observed":6,"accepted":5,"late":1,"duplicates":1,"dropped":0,"revisions":2,"checkpoints":1}}
`
	buf.Reset()
	o = options{journalPath: writeReplay(t, revised), require: "rtec_windows_evaluated_total==5,rtec_revisions_total==2"}
	if err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "3/3 windows planned") {
		t.Errorf("header of a fully delivered, twice revised run is not 3/3:\n%s", buf.String())
	}
}

func TestJournalModeRejectsBadJournal(t *testing.T) {
	o := options{journalPath: writeReplay(t, "{not json\n")}
	if err := run(o, &bytes.Buffer{}); err == nil {
		t.Fatal("malformed journal accepted")
	}
	o = options{journalPath: filepath.Join(t.TempDir(), "nope.jsonl")}
	if err := run(o, &bytes.Buffer{}); err == nil {
		t.Fatal("missing journal accepted")
	}
}

func TestModeFlagsValidation(t *testing.T) {
	if err := run(options{}, &bytes.Buffer{}); err == nil {
		t.Fatal("no source accepted")
	}
	if err := run(options{metricsURL: "x", journalPath: "y"}, &bytes.Buffer{}); err == nil {
		t.Fatal("both sources accepted")
	}
}

func TestParseRequires(t *testing.T) {
	reqs, err := parseRequires(" a>1, b , c_total>=2.5 ,d==0,e!=3,f=7 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 6 || reqs[0].op != ">" || reqs[1].op != "" || reqs[2].want != 2.5 || reqs[5].op != "==" {
		t.Fatalf("parsed %+v", reqs)
	}
	for _, bad := range []string{"9metric", "a>", "a>x", "a b"} {
		if _, err := parseRequires(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestHistMetric checks the replay-side bucketing against the shared
// snapshot/quantile machinery.
func TestHistMetric(t *testing.T) {
	m := histMetric("x", []float64{1, 10, 100}, []float64{0, 1, 5, 50, 5000})
	if m.Count != 5 || m.Sum != 5056 {
		t.Fatalf("count=%g sum=%g", m.Count, m.Sum)
	}
	hs := m.Snapshot()
	// Buckets: le1=2, le10=1, le100=1, overflow=1.
	want := []int64{2, 1, 1, 1}
	for i, n := range hs.Counts {
		if n != want[i] {
			t.Fatalf("counts = %v, want %v", hs.Counts, want)
		}
	}
}
