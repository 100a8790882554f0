package maritime

import (
	"testing"

	"rtecgen/internal/ais"
	"rtecgen/internal/geo"
	"rtecgen/internal/stream"
)

func msg(t int64, v string, x, y, speed, heading, cog float64) ais.Message {
	return ais.Message{Time: t, Vessel: v, Pos: geo.Point{X: x, Y: y},
		SpeedKn: speed, Heading: heading, COG: cog}
}

func testMap() *geo.Map {
	return &geo.Map{Areas: []geo.Area{
		{ID: "f1", Type: AreaFishing, Polygon: geo.Rect(0, 0, 10, 10)},
	}}
}

func countEvents(s stream.Stream, functor string) int {
	n := 0
	for _, e := range s {
		if e.Atom.Functor == functor {
			n++
		}
	}
	return n
}

func findEvent(s stream.Stream, functor string) (stream.Event, bool) {
	for _, e := range s {
		if e.Atom.Functor == functor {
			return e, true
		}
	}
	return stream.Event{}, false
}

func TestPreprocessVelocityAndAreas(t *testing.T) {
	msgs := []ais.Message{
		msg(0, "v1", 15, 5, 10, 90, 90),   // outside f1
		msg(60, "v1", 5, 5, 10, 90, 90),   // inside f1 -> entersArea
		msg(120, "v1", 15, 5, 10, 90, 90), // outside -> leavesArea
	}
	ev := Preprocess(msgs, testMap(), DefaultPreprocessConfig())
	if got := countEvents(ev, "velocity"); got != 3 {
		t.Fatalf("velocity events = %d, want 3", got)
	}
	enter, ok := findEvent(ev, "entersArea")
	if !ok || enter.Time != 60 || enter.Atom.Args[1].Functor != "f1" {
		t.Fatalf("entersArea = %v, %v", enter, ok)
	}
	leave, ok := findEvent(ev, "leavesArea")
	if !ok || leave.Time != 120 {
		t.Fatalf("leavesArea = %v, %v", leave, ok)
	}
	if !ev.IsSorted() {
		t.Fatal("stream not sorted")
	}
}

func TestPreprocessStopAndSlowMotion(t *testing.T) {
	msgs := []ais.Message{
		msg(0, "v1", 20, 20, 10, 0, 0),
		msg(60, "v1", 20, 20.2, 3, 0, 0),     // slow_motion_start
		msg(120, "v1", 20, 20.25, 0.2, 0, 0), // slow_motion_end + stop_start
		msg(180, "v1", 20, 20.25, 0.2, 0, 0),
		msg(240, "v1", 20, 20.3, 8, 0, 0), // stop_end
	}
	ev := Preprocess(msgs, testMap(), DefaultPreprocessConfig())
	ss, _ := findEvent(ev, "slow_motion_start")
	if ss.Time != 60 {
		t.Fatalf("slow_motion_start at %d", ss.Time)
	}
	se, _ := findEvent(ev, "slow_motion_end")
	if se.Time != 120 {
		t.Fatalf("slow_motion_end at %d", se.Time)
	}
	st, _ := findEvent(ev, "stop_start")
	if st.Time != 120 {
		t.Fatalf("stop_start at %d", st.Time)
	}
	en, _ := findEvent(ev, "stop_end")
	if en.Time != 240 {
		t.Fatalf("stop_end at %d", en.Time)
	}
}

func TestPreprocessSpeedAndHeadingChanges(t *testing.T) {
	msgs := []ais.Message{
		msg(0, "v1", 20, 20, 10, 0, 0),
		msg(60, "v1", 20, 21, 10, 0, 0),
		msg(120, "v1", 20, 22, 14, 0, 0),   // +4 kn -> change_in_speed_start
		msg(180, "v1", 20, 23, 14.2, 0, 0), // stable -> change_in_speed_end
		msg(240, "v1", 20, 24, 14, 50, 50), // heading jump -> change_in_heading
	}
	ev := Preprocess(msgs, testMap(), DefaultPreprocessConfig())
	cs, _ := findEvent(ev, "change_in_speed_start")
	if cs.Time != 120 {
		t.Fatalf("change_in_speed_start at %d", cs.Time)
	}
	ce, _ := findEvent(ev, "change_in_speed_end")
	if ce.Time != 180 {
		t.Fatalf("change_in_speed_end at %d", ce.Time)
	}
	ch, _ := findEvent(ev, "change_in_heading")
	if ch.Time != 240 {
		t.Fatalf("change_in_heading at %d", ch.Time)
	}
}

func TestPreprocessGapResetsState(t *testing.T) {
	msgs := []ais.Message{
		msg(0, "v1", 5, 5, 0.2, 0, 0), // stopped inside f1
		msg(60, "v1", 5, 5, 0.2, 0, 0),
		msg(5000, "v1", 5, 5.1, 0.2, 0, 0), // after a >1800 s silence
	}
	ev := Preprocess(msgs, testMap(), DefaultPreprocessConfig())
	gs, ok := findEvent(ev, "gap_start")
	if !ok || gs.Time != 60 {
		t.Fatalf("gap_start = %v (ok=%v), want t=60", gs, ok)
	}
	ge, ok := findEvent(ev, "gap_end")
	if !ok || ge.Time != 5000 {
		t.Fatalf("gap_end = %v, want t=5000", ge)
	}
	// State machines reset: stop_start and entersArea re-emitted after gap.
	if got := countEvents(ev, "stop_start"); got != 2 {
		t.Fatalf("stop_start count = %d, want 2 (initial + after gap)", got)
	}
	if got := countEvents(ev, "entersArea"); got != 2 {
		t.Fatalf("entersArea count = %d, want 2 (initial + after gap)", got)
	}
}

func TestPreprocessProximity(t *testing.T) {
	msgs := []ais.Message{
		msg(0, "v1", 20, 20, 5, 0, 0),
		msg(0, "v2", 25, 20, 5, 0, 0), // far
		msg(60, "v1", 22, 20, 5, 0, 0),
		msg(60, "v2", 22.3, 20, 5, 0, 0), // 0.3 km apart -> proximity_start
		msg(120, "v1", 22, 20, 5, 0, 0),
		msg(120, "v2", 22.4, 20, 5, 0, 0), // still close
		msg(180, "v1", 22, 20, 5, 0, 0),
		msg(180, "v2", 25, 20, 5, 0, 0), // apart -> proximity_end
	}
	ev := Preprocess(msgs, testMap(), DefaultPreprocessConfig())
	ps, ok := findEvent(ev, "proximity_start")
	if !ok || ps.Time != 60 {
		t.Fatalf("proximity_start = %v, %v", ps, ok)
	}
	if ps.Atom.Args[0].Functor != "v1" || ps.Atom.Args[1].Functor != "v2" {
		t.Fatalf("pair order = %s", ps.Atom)
	}
	pe, ok := findEvent(ev, "proximity_end")
	if !ok || pe.Time != 180 {
		t.Fatalf("proximity_end = %v, %v", pe, ok)
	}
	if got := countEvents(ev, "proximity_start"); got != 1 {
		t.Fatalf("proximity_start count = %d", got)
	}
}

func TestPreprocessProximityStaleVessel(t *testing.T) {
	msgs := []ais.Message{
		msg(0, "v1", 20, 20, 5, 0, 0),
		msg(0, "v2", 20.3, 20, 5, 0, 0), // close at t=0
		// v2 goes silent; v1 keeps reporting from the same spot.
		msg(60, "v1", 20, 20, 5, 0, 0),
		msg(4000, "v1", 20, 20, 5, 0, 0), // v2 stale by now: no proximity held
	}
	cfg := DefaultPreprocessConfig()
	ev := Preprocess(msgs, testMap(), cfg)
	if got := countEvents(ev, "proximity_start"); got != 1 {
		t.Fatalf("proximity_start count = %d, want 1", got)
	}
	// At t=4000 v2's last report is 4000s old (> GapSeconds): pair dropped.
	pe, ok := findEvent(ev, "proximity_end")
	if !ok || pe.Time != 4000 {
		t.Fatalf("proximity_end = %v, %v (want t=4000)", pe, ok)
	}
}

func TestDynamicFacts(t *testing.T) {
	msgs := []ais.Message{
		msg(0, "v1", 20, 20, 5, 0, 0),
		msg(0, "v2", 20.3, 20, 5, 0, 0),
	}
	ev := Preprocess(msgs, testMap(), DefaultPreprocessConfig())
	facts := DynamicFacts(ev, []Vessel{{ID: "v9", Type: TypeCargo}})
	var haveV1, haveV9, havePair bool
	for _, f := range facts {
		switch f.String() {
		case "vessel(v1)":
			haveV1 = true
		case "vessel(v9)":
			haveV9 = true
		case "vesselPair(v1, v2)":
			havePair = true
		}
	}
	if !haveV1 || !haveV9 || !havePair {
		t.Fatalf("facts missing: v1=%v v9=%v pair=%v in %v", haveV1, haveV9, havePair, facts)
	}
}

func TestPreprocessConfigValidate(t *testing.T) {
	if err := DefaultPreprocessConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultPreprocessConfig()
	bad.SlowMax = 0.1 // below StoppedMax
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestObservedPairs(t *testing.T) {
	msgs := []ais.Message{
		msg(0, "b", 20, 20, 5, 0, 0),
		msg(0, "a", 20.3, 20, 5, 0, 0),
	}
	ev := Preprocess(msgs, testMap(), DefaultPreprocessConfig())
	pairs := ObservedPairs(ev)
	if len(pairs) != 1 || pairs[0] != [2]string{"a", "b"} {
		t.Fatalf("pairs = %v", pairs)
	}
}

func TestPreprocessHeadingWraparound(t *testing.T) {
	// 350 -> 10 degrees is a 20-degree turn (through north), below the
	// 30-degree threshold; 350 -> 40 is a 50-degree turn.
	msgs := []ais.Message{
		msg(0, "v1", 20, 20, 10, 350, 350),
		msg(60, "v1", 20, 21, 10, 10, 10),    // 20 deg: no event
		msg(120, "v1", 20, 22, 10, 40, 40),   // 30 deg: no event (not >)
		msg(180, "v1", 20, 23, 10, 100, 100), // 60 deg: event
	}
	ev := Preprocess(msgs, testMap(), DefaultPreprocessConfig())
	if got := countEvents(ev, "change_in_heading"); got != 1 {
		t.Fatalf("change_in_heading count = %d, want 1", got)
	}
	ch, _ := findEvent(ev, "change_in_heading")
	if ch.Time != 180 {
		t.Fatalf("change_in_heading at %d, want 180", ch.Time)
	}
}

// The incremental preprocessor fed message by message must reproduce the
// batch pipeline exactly: same events, and once sorted, the same stream.
func TestPreprocessorIncrementalMatchesBatch(t *testing.T) {
	scen, err := BuildScenario(ScenarioConfig{Vessels: 20, Seed: 13, IntervalSec: 60})
	if err != nil {
		t.Fatal(err)
	}
	pcfg := DefaultPreprocessConfig()
	p := NewPreprocessor(scen.Map, pcfg)
	var incremental stream.Stream
	maxBackdate := int64(0)
	for _, msg := range scen.Messages { // BuildScenario returns them in SortMessages order
		for _, e := range p.Feed(msg) {
			if lag := msg.Time - e.Time; lag > maxBackdate {
				maxBackdate = lag
			}
			incremental = append(incremental, e)
		}
	}
	incremental = append(incremental, p.Flush()...)
	incremental.Sort()

	batch := Preprocess(scen.Messages, scen.Map, pcfg)
	if len(batch) == 0 {
		t.Fatal("batch preprocessing produced no events")
	}
	if len(incremental) != len(batch) {
		t.Fatalf("incremental produced %d events, batch %d", len(incremental), len(batch))
	}
	for i := range batch {
		if incremental[i].Time != batch[i].Time ||
			incremental[i].Atom.String() != batch[i].Atom.String() {
			t.Fatalf("event %d differs: incremental %d %s, batch %d %s", i,
				incremental[i].Time, incremental[i].Atom,
				batch[i].Time, batch[i].Atom)
		}
	}
	// gap_start backdating is the only out-of-order emission; it never
	// exceeds the longest silence the generator scripts (a Gap leg).
	if maxBackdate > 4800+scen.Config.IntervalSec {
		t.Fatalf("event backdated %d s behind the frontier, beyond any scripted gap", maxBackdate)
	}
}
