package serve

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"rtecgen/internal/clock"
	"rtecgen/internal/parser"
	"rtecgen/internal/rtec"
	"rtecgen/internal/shard"
	"rtecgen/internal/shard/fault"
	"rtecgen/internal/stream"
	"rtecgen/internal/telemetry"
)

const testED = `
inputEvent(entersArea(_, _)).
inputEvent(leavesArea(_, _)).
inputEvent(gap_start(_)).

areaType(a1, fishing).
areaType(a2, anchorage).

initiatedAt(withinArea(Vl, AreaType)=true, T) :-
    happensAt(entersArea(Vl, AreaID), T),
    areaType(AreaID, AreaType).

terminatedAt(withinArea(Vl, AreaType)=true, T) :-
    happensAt(leavesArea(Vl, AreaID), T),
    areaType(AreaID, AreaType).

terminatedAt(withinArea(Vl, AreaType)=true, T) :-
    happensAt(gap_start(Vl), T).
`

func testEngine(t testing.TB) *rtec.Engine {
	t.Helper()
	ed, err := parser.ParseEventDescription(testED)
	if err != nil {
		t.Fatal(err)
	}
	e, err := rtec.New(ed, rtec.Options{Strict: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// testArrivals builds a deterministic multi-entity stream with bounded
// disorder, the same shape the shard tests use.
func testArrivals(seed int64, n int, maxDelay int64) stream.Stream {
	r := rand.New(rand.NewSource(seed))
	var events stream.Stream
	for len(events) < n {
		v := fmt.Sprintf("v%d", 1+r.Intn(6))
		a := fmt.Sprintf("a%d", 1+r.Intn(2))
		t := int64(r.Intn(990))
		switch r.Intn(3) {
		case 0:
			events = append(events, ev(t, fmt.Sprintf("entersArea(%s, %s)", v, a)))
		case 1:
			events = append(events, ev(t, fmt.Sprintf("leavesArea(%s, %s)", v, a)))
		default:
			events = append(events, ev(t, fmt.Sprintf("gap_start(%s)", v)))
		}
	}
	events.Sort()
	type delayed struct {
		e   stream.Event
		due int64
		idx int
	}
	ds := make([]delayed, len(events))
	for i, e := range events {
		ds[i] = delayed{e: e, due: e.Time + r.Int63n(maxDelay+1), idx: i}
	}
	sort.SliceStable(ds, func(i, j int) bool {
		if ds[i].due != ds[j].due {
			return ds[i].due < ds[j].due
		}
		return ds[i].idx < ds[j].idx
	})
	out := make(stream.Stream, len(ds))
	for i, d := range ds {
		out[i] = d.e
	}
	return out
}

func ev(t int64, src string) stream.Event {
	return stream.Event{Time: t, Atom: parser.MustParseTerm(src)}
}

func ndjsonOf(t testing.TB, s stream.Stream) string {
	t.Helper()
	var sb strings.Builder
	if err := s.WriteNDJSON(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// testDaemon builds and starts a daemon over temp checkpoint/journal paths.
func testDaemon(t testing.TB, dir string, resume bool, tweak func(*Options)) (*Daemon, string, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	opts := Options{
		Shards: 4,
		Stream: rtec.StreamOptions{
			RunOptions:      rtec.RunOptions{Window: 100, Start: 0, End: 991},
			MaxDelay:        60,
			CheckpointPath:  filepath.Join(dir, "run.ckpt"),
			CheckpointEvery: 1,
		},
		JournalPath: filepath.Join(dir, "run.journal"),
		Resume:      resume,
		Seed:        7,
		Telemetry:   telemetry.New(reg, nil, nil),
	}
	if tweak != nil {
		tweak(&opts)
	}
	d, err := New(testEngine(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := d.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return d, "http://" + addr, reg
}

func post(t testing.TB, url, body string) (int, string, http.Header) {
	t.Helper()
	res, err := http.Post(url, "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, string(b), res.Header
}

func get(t testing.TB, url string) (int, string) {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, string(b)
}

// TestDaemonIngestFinish: the daemon's end-to-end answer equals the
// unsharded engine's over the same stream — HTTP framing, NDJSON parsing,
// shard routing and the merge change nothing.
func TestDaemonIngestFinish(t *testing.T) {
	arrivals := testArrivals(7, 120, 60)
	first, last := arrivals.TimeRange()
	want, err := testEngine(t).RunStream(arrivals, rtec.StreamOptions{
		RunOptions: rtec.RunOptions{Window: 100, Start: first, End: last + 1},
		MaxDelay:   60,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wantCSV bytes.Buffer
	if err := want.Recognition.WriteCSV(&wantCSV); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	out := filepath.Join(dir, "out.csv")
	d, url, _ := testDaemon(t, dir, false, func(o *Options) {
		o.Stream.Start, o.Stream.End = first, last+1
		o.OutPath = out
	})
	code, body, _ := post(t, url+"/ingest", ndjsonOf(t, arrivals))
	if code != http.StatusOK {
		t.Fatalf("/ingest = %d: %s", code, body)
	}
	if !strings.Contains(body, `"accepted":120`) {
		t.Fatalf("ingest response %q, want accepted:120", body)
	}

	// /result before a finish is a conflict, not an empty answer.
	if code, body := get(t, url+"/result"); code != http.StatusConflict {
		t.Fatalf("/result before finish = %d: %s", code, body)
	}

	code, body, hdr := post(t, url+"/finish", "")
	if code != http.StatusOK {
		t.Fatalf("/finish = %d: %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "text/csv" {
		t.Fatalf("/finish content type %q", ct)
	}
	if body != wantCSV.String() {
		t.Fatalf("daemon CSV differs from unsharded run:\n%s\nvs\n%s", body, wantCSV.String())
	}
	if code, body := get(t, url+"/result"); code != http.StatusOK || body != wantCSV.String() {
		t.Fatalf("/result after finish = %d, body match %v", code, body == wantCSV.String())
	}
	written, err := os.ReadFile(out)
	if err != nil || string(written) != wantCSV.String() {
		t.Fatalf("OutPath file mismatch: %v", err)
	}
	if d.State() != "finished" {
		t.Fatalf("state after finish = %s", d.State())
	}
	// Ingest after the stream ended is a clean 503, not a hang.
	if code, _, _ := post(t, url+"/ingest", `{"time":1,"atom":"gap_start(v1)"}`+"\n"); code != http.StatusServiceUnavailable {
		t.Fatalf("ingest after finish = %d, want 503", code)
	}
	if _, err := d.Drain(); err != nil {
		t.Fatalf("drain after finish: %v", err)
	}
}

// TestIngestRejectsMalformedLine: strict mode answers a line-numbered 400
// and applies nothing; lenient mode quarantines and counts.
func TestIngestRejectsMalformedLine(t *testing.T) {
	_, url, reg := testDaemon(t, t.TempDir(), false, nil)
	body := `{"time":10,"atom":"entersArea(v1, a1)"}` + "\n{broken\n" + `{"time":20,"atom":"gap_start(v1)"}` + "\n"
	code, resp, _ := post(t, url+"/ingest", body)
	if code != http.StatusBadRequest {
		t.Fatalf("malformed ingest = %d: %s", code, resp)
	}
	if !strings.Contains(resp, `"line":2`) || !strings.Contains(resp, "bad JSON") {
		t.Fatalf("400 body does not name line 2: %s", resp)
	}
	if n := reg.Snapshot().Counters["serve.ingest.events"]; n != 0 {
		t.Fatalf("strict reject applied %d events", n)
	}

	_, url2, reg2 := testDaemon(t, t.TempDir(), false, func(o *Options) { o.Lenient = true })
	code, resp, _ = post(t, url2+"/ingest", body)
	if code != http.StatusOK {
		t.Fatalf("lenient ingest = %d: %s", code, resp)
	}
	if !strings.Contains(resp, `"accepted":2`) || !strings.Contains(resp, `"quarantined":1`) {
		t.Fatalf("lenient response %q", resp)
	}
	if n := reg2.Snapshot().Counters["stream.badrows"]; n != 1 {
		t.Fatalf("stream.badrows = %d, want 1", n)
	}
}

// TestIngestRejectsNonGroundEvent: an atom with a variable in it (any
// capitalised token on the wire) is a malformed line like any other — a
// line-numbered 400 in strict mode, quarantined in lenient mode — and the
// daemon goes on to finish the run on the events it accepted.
func TestIngestRejectsNonGroundEvent(t *testing.T) {
	_, url, reg := testDaemon(t, t.TempDir(), false, nil)
	body := `{"time":10,"atom":"entersArea(v1, a1)"}` + "\n" + `{"time":20,"atom":"entersArea(v2, Area)"}` + "\n"
	code, resp, _ := post(t, url+"/ingest", body)
	if code != http.StatusBadRequest || !strings.Contains(resp, `"line":2`) || !strings.Contains(resp, "is not ground") {
		t.Fatalf("non-ground ingest = %d: %s", code, resp)
	}
	if n := reg.Snapshot().Counters["serve.ingest.events"]; n != 0 {
		t.Fatalf("strict reject applied %d events", n)
	}

	_, url2, reg2 := testDaemon(t, t.TempDir(), false, func(o *Options) { o.Lenient = true })
	code, resp, _ = post(t, url2+"/ingest", body)
	if code != http.StatusOK || !strings.Contains(resp, `"accepted":1`) || !strings.Contains(resp, `"quarantined":1`) {
		t.Fatalf("lenient ingest = %d: %s", code, resp)
	}
	if n := reg2.Snapshot().Counters["stream.badrows"]; n != 1 {
		t.Fatalf("stream.badrows = %d, want 1", n)
	}
	if code, resp, _ = post(t, url2+"/finish", ""); code != http.StatusOK {
		t.Fatalf("finish after a quarantined non-ground event = %d: %s", code, resp)
	}
}

// TestIngestUnavailableBeforeReady: a daemon that has not bound yet (or is
// past ready) answers 503 with a Retry-After hint naming its state.
func TestIngestUnavailableBeforeReady(t *testing.T) {
	reg := telemetry.NewRegistry()
	d, err := New(testEngine(t), Options{
		Stream: rtec.StreamOptions{
			RunOptions:     rtec.RunOptions{Window: 100, Start: 0, End: 991},
			CheckpointPath: filepath.Join(t.TempDir(), "run.ckpt"),
		},
		Telemetry: telemetry.New(reg, nil, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := d.srv.Start("127.0.0.1:0") // bind without flipping ready
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + addr
	code, body, hdr := post(t, url+"/ingest", `{"time":1,"atom":"gap_start(v1)"}`+"\n")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "starting") {
		t.Fatalf("ingest while starting = %d: %s", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if code, body := get(t, url+"/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "starting") {
		t.Fatalf("/healthz while starting = %d: %s", code, body)
	}
	d.Ready()
	if code, body := get(t, url+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz when ready = %d: %s", code, body)
	}
	if _, err := d.Drain(); err != nil {
		t.Fatal(err)
	}
	if d.State() != "suspended" {
		t.Fatalf("state after drain = %s", d.State())
	}
}

// gateClock blocks Sleep calls of exactly the marker duration until the
// gate opens, and passes everything else through instantly — it wedges the
// ingest pump (IngestDelay = marker) without wedging the supervisor's
// watchdog and backoff sleeps, which share the clock.
type gateClock struct {
	gate    chan struct{}
	entered chan struct{}
}

const gateMarker = 12345 * time.Microsecond

func (c *gateClock) Now() time.Time { return time.Unix(0, 0) }
func (c *gateClock) Sleep(d time.Duration) {
	if d == gateMarker {
		select {
		case c.entered <- struct{}{}:
		default:
		}
		<-c.gate
	}
}

var _ clock.Clock = (*gateClock)(nil)

// TestIngestQueueFullThrottles: with the pump wedged and the bounded queue
// full, the next request gets an immediate 429 with Retry-After instead of
// a held connection — the overload contract.
func TestIngestQueueFullThrottles(t *testing.T) {
	clk := &gateClock{gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	_, url, reg := testDaemon(t, t.TempDir(), false, func(o *Options) {
		o.IngestQueue = 1
		o.IngestDelay = gateMarker
		o.Clock = clk
	})
	line := `{"time":1,"atom":"gap_start(v1)"}` + "\n"
	results := make(chan int, 2)
	go func() { code, _, _ := post(t, url+"/ingest", line); results <- code }()
	<-clk.entered // the pump holds batch 1 and is wedged mid-apply

	go func() { code, _, _ := post(t, url+"/ingest", line); results <- code }()
	// Wait for batch 2 to occupy the queue's single slot.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Snapshot().Gauges["serve.ingest.queue"] < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second batch never queued")
		}
		time.Sleep(time.Millisecond)
	}

	code, body, hdr := post(t, url+"/ingest", line)
	if code != http.StatusTooManyRequests {
		t.Fatalf("ingest with full queue = %d: %s", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if n := reg.Snapshot().Counters["serve.ingest.throttled"]; n != 1 {
		t.Fatalf("serve.ingest.throttled = %d, want 1", n)
	}

	close(clk.gate) // release the pump; the two held requests complete
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Fatalf("held request %d = %d, want 200", i, code)
		}
	}
}

// TestIngestTimeoutSafeRetry: a request whose batch cannot be applied
// within the ingest deadline gets a 503 telling it the retry is safe.
func TestIngestTimeoutSafeRetry(t *testing.T) {
	clk := &gateClock{gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	_, url, reg := testDaemon(t, t.TempDir(), false, func(o *Options) {
		o.IngestDelay = gateMarker
		o.Clock = clk
		o.IngestTimeout = 30 * time.Millisecond
	})
	code, body, hdr := post(t, url+"/ingest", `{"time":1,"atom":"gap_start(v1)"}`+"\n")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "safe to retry") {
		t.Fatalf("timed-out ingest = %d: %s", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("timeout 503 without Retry-After")
	}
	if n := reg.Snapshot().Counters["serve.ingest.timeouts"]; n != 1 {
		t.Fatalf("serve.ingest.timeouts = %d, want 1", n)
	}
	close(clk.gate)
}

// TestDrainResumeByteIdentity is the tentpole acceptance gate in-process: a
// daemon drained mid-stream and a fresh one resumed from its suspend
// checkpoints produce the same CSV and the same per-shard journal bytes as
// a daemon that was never interrupted.
func TestDrainResumeByteIdentity(t *testing.T) {
	arrivals := testArrivals(7, 160, 60)
	first, last := arrivals.TimeRange()
	tweak := func(o *Options) { o.Stream.Start, o.Stream.End = first, last+1 }

	// The uninterrupted baseline.
	dirA := t.TempDir()
	_, urlA, _ := testDaemon(t, dirA, false, tweak)
	if code, body, _ := post(t, urlA+"/ingest", ndjsonOf(t, arrivals)); code != http.StatusOK {
		t.Fatalf("baseline ingest = %d: %s", code, body)
	}
	_, wantCSV, _ := post(t, urlA+"/finish", "")

	// The interrupted run: half the stream, then a graceful drain.
	dirB := t.TempDir()
	d1, urlB, _ := testDaemon(t, dirB, false, tweak)
	half := len(arrivals) / 2
	if code, body, _ := post(t, urlB+"/ingest", ndjsonOf(t, arrivals[:half])); code != http.StatusOK {
		t.Fatalf("pre-drain ingest = %d: %s", code, body)
	}
	sts, err := d1.Drain()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	var parked int64
	for _, st := range sts {
		if !st.Suspended {
			t.Fatalf("shard %d did not park: %+v", st.Shard, st)
		}
		parked += st.Consumed
	}
	if parked != int64(half) {
		t.Fatalf("parked %d arrivals, want %d", parked, half)
	}
	if d1.State() != "suspended" {
		t.Fatalf("state after drain = %s", d1.State())
	}

	// The resumed run re-POSTs the whole stream; the prefix is skipped.
	d2, urlB2, _ := testDaemon(t, dirB, true, tweak)
	if code, body, _ := post(t, urlB2+"/ingest", ndjsonOf(t, arrivals)); code != http.StatusOK {
		t.Fatalf("resume ingest = %d: %s", code, body)
	}
	code, gotCSV, _ := post(t, urlB2+"/finish", "")
	if code != http.StatusOK {
		t.Fatalf("resume finish = %d: %s", code, gotCSV)
	}
	if gotCSV != wantCSV {
		t.Fatalf("drain-resume CSV differs from uninterrupted run:\n%s\nvs\n%s", gotCSV, wantCSV)
	}
	if _, err := d2.Drain(); err != nil {
		t.Fatal(err)
	}
	// Per-shard journals are byte-identical; the lifecycle journal is
	// diagnostic (it records the suspend) and deliberately excluded.
	for k := 0; k < 4; k++ {
		a, err := os.ReadFile(filepath.Join(dirA, fmt.Sprintf("run.journal.s%d", k)))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirB, fmt.Sprintf("run.journal.s%d", k)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("shard %d journal differs after drain-resume:\n%s\nvs\n%s", k, b, a)
		}
	}
}

// readSSE collects data payloads from an SSE stream until it closes.
func readSSE(t testing.TB, body io.Reader, out chan<- string) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			out <- data
		}
	}
	close(out)
}

// TestSubscribeSSEFilters: a fluent+entity-filtered subscriber sees exactly
// the windows naming its entity, as SSE "window" frames.
func TestSubscribeSSEFilters(t *testing.T) {
	d, url, _ := testDaemon(t, t.TempDir(), false, nil)
	res, err := http.Get(url + "/subscribe?fluent=withinArea/2&entity=v1")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("subscribe content type %q", ct)
	}
	frames := make(chan string, 64)
	go readSSE(t, res.Body, frames)

	events := stream.Stream{
		ev(10, "entersArea(v1, a1)"),
		ev(15, "entersArea(v2, a2)"),
		ev(320, "leavesArea(v1, a1)"),
	}
	if code, body, _ := post(t, url+"/ingest", ndjsonOf(t, events)); code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", code, body)
	}
	if _, _, hdr := post(t, url+"/finish", ""); hdr == nil {
		t.Fatal("finish failed")
	}
	// finish closed the hub, so the SSE stream ends and frames drains.
	var got []string
	for f := range frames {
		got = append(got, f)
	}
	if len(got) == 0 {
		t.Fatal("filtered subscriber saw no windows")
	}
	for _, f := range got {
		if !strings.Contains(f, "withinArea(v1") {
			t.Fatalf("filtered frame without v1: %s", f)
		}
		if strings.Contains(f, "withinArea(v2") {
			t.Fatalf("filter leaked v2: %s", f)
		}
	}
	if d.State() != "finished" {
		t.Fatalf("state = %s", d.State())
	}
}

// TestSubscribeLongPoll: ?once=1 returns a single window as JSON, and 204
// when the timeout passes without one.
func TestSubscribeLongPoll(t *testing.T) {
	_, url, _ := testDaemon(t, t.TempDir(), false, nil)
	if code, _ := get(t, url+"/subscribe?once=1&timeout=30ms"); code != http.StatusNoContent {
		t.Fatalf("idle long-poll = %d, want 204", code)
	}
	if code, _ := get(t, url+"/subscribe?once=1&timeout=banana"); code != http.StatusBadRequest {
		t.Fatal("bad timeout accepted")
	}
	got := make(chan string, 1)
	go func() {
		_, body := get(t, url+"/subscribe?once=1&timeout=10s")
		got <- body
	}()
	// Give the long-poll a moment to register before the windows fire.
	time.Sleep(50 * time.Millisecond)
	events := stream.Stream{ev(10, "entersArea(v1, a1)"), ev(320, "leavesArea(v1, a1)")}
	if code, body, _ := post(t, url+"/ingest", ndjsonOf(t, events)); code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", code, body)
	}
	post(t, url+"/finish", "")
	body := <-got
	if !strings.Contains(body, `"window_start"`) || !strings.Contains(body, `"holds"`) {
		t.Fatalf("long-poll body %q is not a window", body)
	}
}

// TestSlowSubscriberDropsNotBlocks: a subscriber that never reads cannot
// stall the engine — its deliveries drop with a counter and it is evicted
// once hopelessly behind; ingest latency stays unaffected.
func TestSlowSubscriberDropsNotBlocks(t *testing.T) {
	d, url, reg := testDaemon(t, t.TempDir(), false, func(o *Options) {
		o.SubBuffer = 1
		o.SubEvict = 3
	})
	// Wedged at the hub, not at TCP: a connected client that stops reading
	// is absorbed by kernel socket buffers for a timing-dependent while, a
	// registered subscriber whose channel nobody receives from is full
	// after one delivery.
	if _, err := d.hub.add("", ""); err != nil {
		t.Fatal(err)
	}

	arrivals := testArrivals(7, 120, 60)
	if code, body, _ := post(t, url+"/ingest", ndjsonOf(t, arrivals)); code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", code, body)
	}
	if code, body, _ := post(t, url+"/finish", ""); code != http.StatusOK {
		t.Fatalf("finish = %d: %s", code, body)
	}
	snap := reg.Snapshot()
	if snap.Counters["serve.subs.dropped"] == 0 {
		t.Fatal("wedged subscriber dropped nothing — deliveries must have blocked")
	}
	if snap.Counters["serve.subs.evicted"] != 1 {
		t.Fatalf("serve.subs.evicted = %d, want 1", snap.Counters["serve.subs.evicted"])
	}
	if snap.Gauges["serve.subs.active"] != 0 {
		t.Fatalf("evicted subscriber still active: %d", snap.Gauges["serve.subs.active"])
	}
}

// TestDaemonHealthUnderChaos hammers /healthz and /metrics from many
// goroutines while injected faults degrade one shard and restart another —
// the observability surface must stay consistent (and race-free under
// -race) through supervision churn, and /healthz must end up 503 naming
// the degraded shard.
func TestDaemonHealthUnderChaos(t *testing.T) {
	// Shard 1 exhausts its restart budget and degrades; shard 2 restarts
	// once and recovers.
	plan, err := fault.Parse("panic@w1:s1,panic@w2:s1,panic@w1:s2")
	if err != nil {
		t.Fatal(err)
	}
	_, url, _ := testDaemon(t, t.TempDir(), false, func(o *Options) {
		o.Faults = plan
		o.MaxRestarts = 1
		o.Overflow = shard.OverflowDrop // keep ingesting past the degraded shard
	})
	stop := make(chan struct{})
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, path := range []string{"/healthz", "/metrics"} {
					res, err := http.Get(url + path)
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, res.Body) //nolint:errcheck
					res.Body.Close()
				}
			}
		}()
	}
	arrivals := testArrivals(7, 160, 60)
	for i := 0; i < len(arrivals); i += 16 {
		end := i + 16
		if end > len(arrivals) {
			end = len(arrivals)
		}
		if code, body, _ := post(t, url+"/ingest", ndjsonOf(t, arrivals[i:end])); code != http.StatusOK {
			t.Fatalf("ingest = %d: %s", code, body)
		}
	}
	if code, body, _ := post(t, url+"/finish", ""); code != http.StatusOK {
		t.Fatalf("finish = %d: %s", code, body)
	}
	close(stop)
	for i := 0; i < 4; i++ {
		<-done
	}
	code, body := get(t, url+"/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "degraded shards: [1]") {
		t.Fatalf("/healthz after degradation = %d: %s", code, body)
	}
}

// TestFinishDrainRace: concurrent /finish and Drain resolve to exactly one
// winner; the loser reports cleanly instead of double-closing.
func TestFinishDrainRace(t *testing.T) {
	for i := 0; i < 4; i++ {
		d, url, _ := testDaemon(t, t.TempDir(), false, nil)
		if code, body, _ := post(t, url+"/ingest", ndjsonOf(t, testArrivals(7, 40, 60))); code != http.StatusOK {
			t.Fatalf("ingest = %d: %s", code, body)
		}
		finErr := make(chan error, 1)
		go func() { _, err := d.Finish(); finErr <- err }()
		_, drainErr := d.Drain()
		if drainErr != nil {
			t.Fatalf("drain: %v", drainErr)
		}
		if err := <-finErr; err != nil && !strings.Contains(err.Error(), "daemon is") {
			t.Fatalf("finish loser error: %v", err)
		}
		if s := d.State(); s != "suspended" && s != "finished" {
			t.Fatalf("state after race = %s", s)
		}
	}
}
