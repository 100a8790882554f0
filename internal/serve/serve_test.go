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
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"rtecgen/internal/clock"
	"rtecgen/internal/maritime"
	"rtecgen/internal/parser"
	"rtecgen/internal/rtec"
	"rtecgen/internal/shard"
	"rtecgen/internal/stream"
	"rtecgen/internal/telemetry"
	"rtecgen/internal/telemetry/journal"
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
	e, err := rtec.New(ed, rtec.Options{Strict: true})
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

// TestDaemonIngestFinish: the daemon's end-to-end answer equals a lone
// streaming engine's over the same stream — HTTP framing, NDJSON parsing
// and supervision change nothing.
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

	d, url, _ := testDaemon(t, t.TempDir(), false, func(o *Options) {
		o.Stream.Start, o.Stream.End = first, last+1
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
		t.Fatalf("daemon CSV differs from a lone engine's:\n%s\nvs\n%s", body, wantCSV.String())
	}
	if code, body := get(t, url+"/result"); code != http.StatusOK || body != wantCSV.String() {
		t.Fatalf("/result after finish = %d, body match %v", code, body == wantCSV.String())
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
// capitalised token on the wire), or an event without a time, is a malformed
// line like any other — a line-numbered 400 in strict mode, quarantined in
// lenient mode, not admitted at time 0 — and the daemon goes on to finish
// the run on the events it accepted.
func TestIngestRejectsNonGroundEvent(t *testing.T) {
	for _, tc := range []struct{ line, want string }{
		{`{"time":20,"atom":"entersArea(v2, Area)"}`, "is not ground"},
		{`{"atom":"gap_start(v1)"}`, "missing time"},
	} {
		_, url, reg := testDaemon(t, t.TempDir(), false, nil)
		body := `{"time":10,"atom":"entersArea(v1, a1)"}` + "\n" + tc.line + "\n"
		code, resp, _ := post(t, url+"/ingest", body)
		if code != http.StatusBadRequest || !strings.Contains(resp, `"line":2`) || !strings.Contains(resp, tc.want) {
			t.Fatalf("%s: strict ingest = %d: %s", tc.want, code, resp)
		}
		if n := reg.Snapshot().Counters["serve.ingest.events"]; n != 0 {
			t.Fatalf("%s: strict reject applied %d events", tc.want, n)
		}

		_, url2, reg2 := testDaemon(t, t.TempDir(), false, func(o *Options) { o.Lenient = true })
		code, resp, _ = post(t, url2+"/ingest", body)
		if code != http.StatusOK || !strings.Contains(resp, `"accepted":1`) || !strings.Contains(resp, `"quarantined":1`) {
			t.Fatalf("%s: lenient ingest = %d: %s", tc.want, code, resp)
		}
		if n := reg2.Snapshot().Counters["stream.badrows"]; n != 1 {
			t.Fatalf("%s: stream.badrows = %d, want 1", tc.want, n)
		}
		if code, resp, _ = post(t, url2+"/finish", ""); code != http.StatusOK {
			t.Fatalf("%s: finish after a quarantined event = %d: %s", tc.want, code, resp)
		}
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
// ingest pump (IngestDelay = marker).
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
// a held connection — the overload contract. The refused batch applied
// nothing (its body reports no applied prefix), so re-POSTing it once the
// pump is released lands the run on an uninterrupted daemon's CSV.
func TestIngestQueueFullThrottles(t *testing.T) {
	arrivals := testArrivals(7, 120, 60)
	chunks := []stream.Stream{arrivals[:40], arrivals[40:80], arrivals[80:]}

	_, urlA, _ := testDaemon(t, t.TempDir(), false, nil)
	if code, body, _ := post(t, urlA+"/ingest", ndjsonOf(t, arrivals)); code != http.StatusOK {
		t.Fatalf("uninterrupted ingest = %d: %s", code, body)
	}
	_, wantCSV, _ := post(t, urlA+"/finish", "")

	clk := &gateClock{gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	_, url, reg := testDaemon(t, t.TempDir(), false, func(o *Options) {
		o.IngestQueue = 1
		o.IngestDelay = gateMarker
		o.Clock = clk
	})
	results := make(chan int, 2)
	go func() { code, _, _ := post(t, url+"/ingest", ndjsonOf(t, chunks[0])); results <- code }()
	<-clk.entered // the pump holds batch 1 and is wedged mid-apply

	go func() { code, _, _ := post(t, url+"/ingest", ndjsonOf(t, chunks[1])); results <- code }()
	// Wait for batch 2 to occupy the queue's single slot.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Snapshot().Gauges["serve.ingest.queue"] < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second batch never queued")
		}
		time.Sleep(time.Millisecond)
	}

	code, body, hdr := post(t, url+"/ingest", ndjsonOf(t, chunks[2]))
	if code != http.StatusTooManyRequests {
		t.Fatalf("ingest with full queue = %d: %s", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if strings.Contains(body, "applied") {
		t.Fatalf("429 body reports an applied prefix, but a refused batch applies nothing: %s", body)
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
	if code, body, _ := post(t, url+"/ingest", ndjsonOf(t, chunks[2])); code != http.StatusOK {
		t.Fatalf("re-POST of the refused batch = %d: %s", code, body)
	}
	code, gotCSV, _ := post(t, url+"/finish", "")
	if code != http.StatusOK || gotCSV != wantCSV {
		t.Fatalf("/finish after the retried 429 = %d:\n%s\nwant the uninterrupted daemon's:\n%s", code, gotCSV, wantCSV)
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

// TestDrainResumeByteIdentity is the drain contract in-process: a daemon
// drained mid-stream and a fresh one resumed from its suspend checkpoint
// produce the same CSV and the same engine journal bytes as a daemon that
// was never interrupted.
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
	if st := sts[0]; !st.Suspended || st.Consumed != int64(half) {
		t.Fatalf("the engine did not park after %d arrivals: %+v", half, st)
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
	// The engine journals are byte-identical; the lifecycle journal is
	// diagnostic (it records the suspend) and deliberately excluded.
	a, err := os.ReadFile(filepath.Join(dirA, "run.journal.s0"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dirB, "run.journal.s0"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("engine journal differs after drain-resume:\n%s\nvs\n%s", b, a)
	}
}

// TestResumeAfterKillAtEveryWindow is the hard-kill contract: the files a
// daemon leaves when it is killed at any window — snapshotted by the window
// observer at each first delivery, which is what a kill there leaves, since
// the journal records past the last checkpoint generation are still in
// memory — resume in a new daemon that, re-fed the whole stream, finishes
// with the uninterrupted run's CSV, engine journal and last checkpoint, byte
// for byte. A checkpoint write in flight at the snapshot is caught before
// or after its rename: both are states a kill can leave.
func TestResumeAfterKillAtEveryWindow(t *testing.T) {
	arrivals := testArrivals(7, 160, 60)
	first, last := arrivals.TimeRange()
	for _, slide := range []int64{0, 50} {
		t.Run(fmt.Sprintf("slide=%d", slide), func(t *testing.T) {
			type snapshot struct{ ckpt, journal []byte }
			var (
				mu    sync.Mutex
				snaps []snapshot
			)
			dir := t.TempDir()
			read := func(dir, name string) []byte {
				b, _ := os.ReadFile(filepath.Join(dir, name)) // nil when absent
				return b
			}
			d, url, _ := testDaemon(t, dir, false, func(o *Options) {
				o.Stream.Start, o.Stream.End, o.Stream.Slide = first, last+1, slide
				o.onWindow = func(_ int, wr rtec.WindowResult) {
					if wr.Revision == 0 {
						mu.Lock()
						snaps = append(snaps, snapshot{read(dir, "run.ckpt.s0"), read(dir, "run.journal.s0")})
						mu.Unlock()
					}
				}
			})
			if code, body, _ := post(t, url+"/ingest", ndjsonOf(t, arrivals)); code != http.StatusOK {
				t.Fatalf("ingest = %d: %s", code, body)
			}
			_, wantCSV, _ := post(t, url+"/finish", "")
			if _, err := d.Drain(); err != nil {
				t.Fatal(err)
			}
			wantJournal, wantCkpt := read(dir, "run.journal.s0"), read(dir, "run.ckpt.s0")
			mu.Lock()
			defer mu.Unlock()
			if len(snaps) < 8 {
				t.Fatalf("%d windows delivered: too few kill points", len(snaps))
			}
			for k, snap := range snaps {
				kdir := t.TempDir()
				for name, data := range map[string][]byte{"run.ckpt.s0": snap.ckpt, "run.journal.s0": snap.journal} {
					if data != nil {
						if err := os.WriteFile(filepath.Join(kdir, name), data, 0o644); err != nil {
							t.Fatal(err)
						}
					}
				}
				d, url, _ := testDaemon(t, kdir, true, func(o *Options) {
					o.Stream.Start, o.Stream.End, o.Stream.Slide = first, last+1, slide
				})
				if code, body, _ := post(t, url+"/ingest", ndjsonOf(t, arrivals)); code != http.StatusOK {
					t.Fatalf("kill at window %d: resumed ingest = %d: %s", k, code, body)
				}
				code, gotCSV, _ := post(t, url+"/finish", "")
				if _, err := d.Drain(); err != nil {
					t.Fatal(err)
				}
				if code != http.StatusOK || gotCSV != wantCSV {
					t.Fatalf("kill at window %d: resumed /finish = %d:\n%s\nvs uninterrupted\n%s", k, code, gotCSV, wantCSV)
				}
				if got := read(kdir, "run.journal.s0"); !bytes.Equal(got, wantJournal) {
					t.Fatalf("kill at window %d: the engine journal differs after resuming:\n%s\nvs uninterrupted\n%s", k, got, wantJournal)
				}
				if !bytes.Equal(read(kdir, "run.ckpt.s0"), wantCkpt) {
					t.Fatalf("kill at window %d: the last checkpoint differs after resuming", k)
				}
			}
		})
	}
}

// maritimeInput is the engine over the gold maritime event description and
// background knowledge of the 14-vessel seed-7 scenario (AIS every 60 s),
// that scenario's events in time order, and the same events in the arrival
// order of a bounded shuffle at max-delay 900, seed 13, with a duplicate
// every 50 events: the input of ci.sh's rtecd gate.
func maritimeInput(t *testing.T) (*rtec.Engine, stream.Stream, stream.Stream) {
	t.Helper()
	scen, err := maritime.BuildScenario(maritime.ScenarioConfig{Vessels: 14, Seed: 7, IntervalSec: 60})
	if err != nil {
		t.Fatal(err)
	}
	evs := stream.Stream(maritime.Preprocess(scen.Messages, scen.Map, maritime.DefaultPreprocessConfig()))
	var src strings.Builder
	src.WriteString(maritime.GoldSource())
	for _, c := range maritime.BackgroundClauses(scen.Map, scen.Fleet, maritime.ObservedPairs(evs)) {
		fmt.Fprintln(&src, c)
	}
	for _, fact := range maritime.DynamicFacts(evs, scen.Fleet) {
		fmt.Fprintf(&src, "%s.\n", fact)
	}
	ed, err := parser.ParseEventDescription(src.String())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := rtec.New(ed, rtec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	evs.Sort()
	arrivals, _, _ := stream.Perturb(evs, rand.New(rand.NewSource(13)), 900, 50)
	return eng, evs, arrivals
}

// TestExactOnRelationalFluents: tugging(V1,V2) and pilotBoarding(V1,V2) join
// two vessels through proximity, so a daemon that split the stream by
// vessel would lose them. Over the maritime input the supervisor's Close
// CSV, with its inert Shards option at 4, and a daemon's /finish CSV are the
// batch engine's, byte for byte, and that reference has both relational
// fluents.
func TestExactOnRelationalFluents(t *testing.T) {
	eng, events, arrivals := maritimeInput(t)
	first, last := events.TimeRange()
	geometry := rtec.StreamOptions{
		RunOptions: rtec.RunOptions{Window: 3600, Start: first, End: last + 1},
		MaxDelay:   900,
	}
	ref, err := eng.Run(events, geometry.RunOptions)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := ref.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	for _, fluent := range []string{"tugging/2", "pilotBoarding/2"} {
		if !strings.Contains(want.String(), "\n"+fluent+",") {
			t.Fatalf("the batch reference has no %s row: the input tests no relational fluent", fluent)
		}
	}

	dir := t.TempDir()
	opts := geometry
	opts.CheckpointPath, opts.CheckpointEvery = filepath.Join(dir, "sup.ckpt"), 1
	sup, err := shard.NewSupervisor(eng, shard.Options{Shards: 4, Stream: opts, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range arrivals {
		if err := sup.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sup.Close()
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := res.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("supervisor CSV (Shards: 4) differs from the batch engine's:\n%s\nvs\n%s", got.String(), want.String())
	}

	opts.CheckpointPath = filepath.Join(dir, "d.ckpt")
	d, err := New(eng, Options{Shards: 4, Stream: opts, Seed: 7, JournalPath: filepath.Join(dir, "d.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := d.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if code, body, _ := post(t, "http://"+addr+"/ingest", ndjsonOf(t, arrivals)); code != http.StatusOK {
		t.Fatalf("/ingest = %d: %s", code, body)
	}
	code, body, _ := post(t, "http://"+addr+"/finish", "")
	if code != http.StatusOK {
		t.Fatalf("/finish = %d: %s", code, body)
	}
	if body != want.String() {
		t.Errorf("daemon /finish CSV differs from the batch engine's:\n%s\nvs\n%s", body, want.String())
	}
	if _, err := d.Drain(); err != nil {
		t.Fatal(err)
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

// panicsAt is a window observer that fails the engine: it panics at the
// first-time delivery of each window whose query time at lists, once. The
// latches live in the closure, outside every engine, so a daemon resumed
// with the same observer replays past a panic that fired.
func panicsAt(at ...int64) func(int, rtec.WindowResult) {
	var mu sync.Mutex
	fired := map[int64]bool{} // by query time
	return func(_ int, wr rtec.WindowResult) {
		if wr.Revision != 0 || !slices.Contains(at, wr.QueryTime) {
			return
		}
		mu.Lock()
		again := fired[wr.QueryTime]
		fired[wr.QueryTime] = true
		mu.Unlock()
		if !again {
			panic(fmt.Sprintf("injected panic at query time %d", wr.QueryTime))
		}
	}
}

// TestDaemonHealthUnderChaos hammers /healthz and /metrics from many
// goroutines while an observer panic degrades the engine — the
// observability surface must stay consistent (and race-free under -race)
// through the failure. Once the engine is dead, an arrival gets a 503
// naming it, /finish fails instead of answering a partial CSV, and /healthz
// stays 503 naming the degraded engine.
func TestDaemonHealthUnderChaos(t *testing.T) {
	// The engine degrades at its second window (query time 200).
	_, url, _ := testDaemon(t, t.TempDir(), false, func(o *Options) {
		o.onWindow = panicsAt(200)
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
		end := min(i+16, len(arrivals))
		code, body, _ := post(t, url+"/ingest", ndjsonOf(t, arrivals[i:end]))
		if code != http.StatusOK && (code != http.StatusServiceUnavailable || !namesDegraded(body)) {
			t.Fatalf("ingest = %d: %s", code, body)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body := get(t, url+"/healthz")
		if code == http.StatusServiceUnavailable && strings.Contains(body, "degraded shards: [0]") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/healthz never reported the engine degraded: %d %s", code, body)
		}
		time.Sleep(time.Millisecond)
	}
	if code, body, _ := post(t, url+"/ingest", ndjsonOf(t, arrivals[:1])); code != http.StatusServiceUnavailable || !namesDegraded(body) {
		t.Fatalf("ingest to the degraded engine = %d: %s", code, body)
	}
	if code, body, _ := post(t, url+"/finish", ""); code == http.StatusOK || !namesDegraded(body) {
		t.Fatalf("/finish with a degraded engine = %d: %s", code, body)
	}
	close(stop)
	for i := 0; i < 4; i++ {
		<-done
	}
	code, body := get(t, url+"/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "degraded shards: [0]") {
		t.Fatalf("/healthz after degradation = %d: %s", code, body)
	}
}

// namesDegraded reports whether an error body names the engine, shard 0, as
// degraded.
func namesDegraded(body string) bool {
	return strings.Contains(body, "shard 0 ") && strings.Contains(body, "degraded")
}

// TestDegradedShardFailsFinish: an engine that degrades while /finish drains
// it — its last window, ending at 991, panics — fails both /finish and
// /result with a non-200 naming it, instead of answering a CSV that lacks
// what the engine never delivered.
func TestDegradedShardFailsFinish(t *testing.T) {
	_, url, _ := testDaemon(t, t.TempDir(), false, func(o *Options) {
		o.onWindow = panicsAt(991)
	})
	if code, body, _ := post(t, url+"/ingest", ndjsonOf(t, testArrivals(7, 160, 60))); code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", code, body)
	}
	if code, body, _ := post(t, url+"/finish", ""); code == http.StatusOK || !namesDegraded(body) {
		t.Fatalf("/finish with the engine degraded in the drain = %d:\n%s", code, body)
	}
	if code, body := get(t, url+"/result"); code == http.StatusOK || !namesDegraded(body) {
		t.Fatalf("/result with the engine degraded in the drain = %d:\n%s", code, body)
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

// cappedRun serves arrivals through a daemon in a fresh directory, with the
// journal cap maxBytes (0: none). With a window observer onWindow that
// fails the engine, each daemon it degrades is followed by one resumed over
// the same files and re-fed the whole stream, until a daemon finishes; the
// engine journal's state after each degraded daemon is in degraded. It
// returns the /finish CSV and, once the last daemon is drained, the
// lifecycle journal followed by the engine's.
func cappedRun(t *testing.T, arrivals stream.Stream, maxBytes int64, onWindow func(int, rtec.WindowResult)) (csv string, journals, degraded [][]byte) {
	t.Helper()
	dir := t.TempDir()
	for resume := false; ; resume = true {
		d, url, _ := testDaemon(t, dir, resume, func(o *Options) {
			o.JournalOpts.MaxBytes = maxBytes
			o.onWindow = onWindow
		})
		post(t, url+"/ingest", ndjsonOf(t, arrivals))
		code, body, _ := post(t, url+"/finish", "")
		if _, err := d.Drain(); err != nil && code == http.StatusOK {
			t.Fatal(err)
		}
		if code == http.StatusOK {
			csv = body
			break
		}
		if onWindow == nil || !namesDegraded(body) {
			t.Fatalf("finish = %d: %s", code, body)
		}
		data, err := os.ReadFile(filepath.Join(dir, "run.journal.s0"))
		if err != nil {
			t.Fatal(err)
		}
		degraded = append(degraded, data)
	}
	for _, name := range []string{"run.journal", "run.journal.s0"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		journals = append(journals, data)
	}
	return csv, journals, degraded
}

// TestJournalCapped: under a journal cap below the lifecycle journal's size,
// both journals the daemon writes — the lifecycle journal and the engine's —
// validate and end in the journal_capped marker, and the recognition is the
// uncapped run's. Under a cap the engine journal reaches mid-run, an engine
// that panics once before the cap and once after it is resumed across both
// by new daemons, which cut the journal back to their checkpoints and end
// on the bytes of the run without faults.
func TestJournalCapped(t *testing.T) {
	arrivals := testArrivals(7, 160, 60)
	wantCSV, full, _ := cappedRun(t, arrivals, 0, nil)
	capped := func(what string, journals [][]byte) {
		t.Helper()
		for i, j := range journals {
			stats, err := journal.Validate(bytes.NewReader(j))
			if err != nil {
				t.Fatalf("%s: journal %d: %v", what, i, err)
			}
			if !stats.Capped {
				t.Errorf("%s: journal %d (%d bytes) is not capped", what, i, len(j))
			}
		}
	}
	small := int64(len(full[0]) - 1)
	csv, journals, _ := cappedRun(t, arrivals, small, nil)
	if csv != wantCSV {
		t.Fatalf("cap %d: the CSV differs from the uncapped run's", small)
	}
	capped(fmt.Sprintf("cap %d", small), journals)

	const mid = 1500
	if len(full[1]) <= 2*mid {
		t.Fatalf("the engine journals %d bytes uncapped: the cap of %d would not fall mid-run", len(full[1]), mid)
	}
	csv, clean, _ := cappedRun(t, arrivals, mid, nil)
	if csv != wantCSV {
		t.Fatalf("cap %d: the CSV differs from the uncapped run's", mid)
	}
	capped(fmt.Sprintf("cap %d", mid), clean[1:])
	csv, resumed, degraded := cappedRun(t, arrivals, mid, panicsAt(200, 900))
	if csv != wantCSV {
		t.Fatalf("cap %d across resumes: the CSV differs from the uncapped run's", mid)
	}
	if len(degraded) != 2 || bytes.Contains(degraded[0], []byte("journal_capped")) || !bytes.Contains(degraded[1], []byte("journal_capped")) {
		t.Fatalf("cap %d: %d daemons degraded; the panics do not fall on both sides of the cap", mid, len(degraded))
	}
	if !bytes.Equal(resumed[1], clean[1]) {
		t.Errorf("cap %d: the engine journal differs across resumes:\n%s\nvs\n%s", mid, resumed[1], clean[1])
	}
}
