package rtec

import (
	"strings"
	"testing"

	"rtecgen/internal/intervals"
	"rtecgen/internal/parser"
	"rtecgen/internal/stream"
)

func mustEngine(t *testing.T, src string, opts Options) *Engine {
	t.Helper()
	ed, err := parser.ParseEventDescription(src)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(ed, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func ev(t int64, src string) stream.Event {
	return stream.Event{Time: t, Atom: parser.MustParseTerm(src)}
}

func ivl(s, e int64) intervals.Interval { return intervals.Interval{Start: s, End: e} }

func checkIntervals(t *testing.T, rec *Recognition, key string, want intervals.List) {
	t.Helper()
	got := rec.IntervalsOfKey(key)
	if !got.Equal(want) {
		t.Fatalf("%s = %s, want %s\nall keys: %v\nwarnings: %v", key, got, want, rec.Keys(), rec.Warnings)
	}
}

const withinAreaED = `
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

func TestSimpleFluentPaperRules(t *testing.T) {
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	events := stream.Stream{
		ev(10, "entersArea(v1, a1)"),
		ev(20, "leavesArea(v1, a1)"),
		ev(30, "entersArea(v1, a2)"),
		ev(40, "gap_start(v1)"),
		ev(50, "entersArea(v2, a1)"),
	}
	rec, err := e.Run(events, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Initiated at 10 -> holds from 11; terminated at 20 -> last holds 20.
	checkIntervals(t, rec, "withinArea(v1, fishing)=true", intervals.List{ivl(11, 21)})
	checkIntervals(t, rec, "withinArea(v1, anchorage)=true", intervals.List{ivl(31, 41)})
	// v2 enters at the last event (50): the fluent would hold from 51, which
	// is beyond the recognition horizon End=51, so nothing is reported.
	if got := rec.IntervalsOfKey("withinArea(v2, fishing)=true"); len(got) != 0 {
		t.Fatalf("v2 = %s, want empty (beyond horizon)", got)
	}
}

func TestSimpleFluentOpenIntervalClipped(t *testing.T) {
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	events := stream.Stream{
		ev(10, "entersArea(v1, a1)"),
		ev(90, "gap_start(v9)"), // pushes the horizon to 91
	}
	rec, err := e.Run(events, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkIntervals(t, rec, "withinArea(v1, fishing)=true", intervals.List{ivl(11, 91)})
}

func TestMultiValuedFluentExclusivity(t *testing.T) {
	src := `
inputEvent(velocity(_, _, _, _)).
inputEvent(stop_start(_)).

initiatedAt(movingSpeed(Vl)=below, T) :-
    happensAt(velocity(Vl, Speed, C, H), T),
    Speed > 0.1,
    Speed < 5.

initiatedAt(movingSpeed(Vl)=normal, T) :-
    happensAt(velocity(Vl, Speed, C, H), T),
    Speed >= 5,
    Speed =< 15.

terminatedAt(movingSpeed(Vl)=below, T) :-
    happensAt(stop_start(Vl), T).

terminatedAt(movingSpeed(Vl)=normal, T) :-
    happensAt(stop_start(Vl), T).
`
	e := mustEngine(t, src, Options{Strict: true})
	events := stream.Stream{
		ev(10, "velocity(v1, 3.0, 90.0, 90.0)"),  // below from 11
		ev(20, "velocity(v1, 10.0, 90.0, 90.0)"), // normal from 21; below ends at 20
		ev(30, "stop_start(v1)"),                 // normal ends at 30
		ev(40, "velocity(v1, 3.0, 90.0, 90.0)"),  // below from 41 until horizon
		ev(50, "velocity(v2, 10.0, 90.0, 90.0)"),
	}
	rec, err := e.Run(events, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkIntervals(t, rec, "movingSpeed(v1)=below", intervals.List{ivl(11, 21), ivl(41, 51)})
	checkIntervals(t, rec, "movingSpeed(v1)=normal", intervals.List{ivl(21, 31)})
	checkIntervals(t, rec, "movingSpeed(v2)=normal", intervals.List{ivl(51, 51)}[:0])
	// v2's normal is initiated at 50, holds from 51 = End: clipped away.
	if got := rec.IntervalsOfKey("movingSpeed(v2)=normal"); len(got) != 0 {
		t.Fatalf("v2 normal = %s, want empty (beyond horizon)", got)
	}
}

func TestSDFluentUnionWithoutGrounding(t *testing.T) {
	src := `
inputEvent(velocity(_, _, _, _)).
inputEvent(stop_start(_)).

initiatedAt(movingSpeed(Vl)=below, T) :-
    happensAt(velocity(Vl, Speed, C, H), T),
    Speed > 0.1, Speed < 5.
initiatedAt(movingSpeed(Vl)=normal, T) :-
    happensAt(velocity(Vl, Speed, C, H), T),
    Speed >= 5, Speed =< 15.
initiatedAt(movingSpeed(Vl)=above, T) :-
    happensAt(velocity(Vl, Speed, C, H), T),
    Speed > 15.
terminatedAt(movingSpeed(Vl)=below, T) :- happensAt(stop_start(Vl), T).
terminatedAt(movingSpeed(Vl)=normal, T) :- happensAt(stop_start(Vl), T).
terminatedAt(movingSpeed(Vl)=above, T) :- happensAt(stop_start(Vl), T).

holdsFor(underWay(Vessel)=true, I) :-
    holdsFor(movingSpeed(Vessel)=below, I1),
    holdsFor(movingSpeed(Vessel)=normal, I2),
    holdsFor(movingSpeed(Vessel)=above, I3),
    union_all([I1, I2, I3], I).
`
	e := mustEngine(t, src, Options{Strict: true})
	events := stream.Stream{
		ev(10, "velocity(v1, 3.0, 0.0, 0.0)"),
		ev(20, "velocity(v1, 10.0, 0.0, 0.0)"),
		ev(30, "stop_start(v1)"),
		// v2 only ever sails at normal speed: the union must still see it.
		ev(10, "velocity(v2, 10.0, 0.0, 0.0)"),
		ev(25, "stop_start(v2)"),
		ev(60, "stop_start(v9)"),
	}
	rec, err := e.Run(events, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkIntervals(t, rec, "underWay(v1)=true", intervals.List{ivl(11, 31)})
	checkIntervals(t, rec, "underWay(v2)=true", intervals.List{ivl(11, 26)})
}

func TestSDFluentIntersectionAndComplement(t *testing.T) {
	// pilot-boarding style: proximity AND (stopped OR low speed), minus
	// near-coast intervals.
	src := `
inputEvent(proximity_start(_, _)).
inputEvent(proximity_end(_, _)).
inputEvent(slow_start(_)).
inputEvent(slow_end(_)).
inputEvent(coast_in(_)).
inputEvent(coast_out(_)).

initiatedAt(proximity(V1, V2)=true, T) :- happensAt(proximity_start(V1, V2), T).
terminatedAt(proximity(V1, V2)=true, T) :- happensAt(proximity_end(V1, V2), T).

initiatedAt(lowSpeed(V)=true, T) :- happensAt(slow_start(V), T).
terminatedAt(lowSpeed(V)=true, T) :- happensAt(slow_end(V), T).

initiatedAt(nearCoast(V)=true, T) :- happensAt(coast_in(V), T).
terminatedAt(nearCoast(V)=true, T) :- happensAt(coast_out(V), T).

holdsFor(pilotOps(V1, V2)=true, I) :-
    holdsFor(proximity(V1, V2)=true, Ip),
    holdsFor(lowSpeed(V1)=true, Il1),
    holdsFor(lowSpeed(V2)=true, Il2),
    intersect_all([Ip, Il1, Il2], Ii),
    holdsFor(nearCoast(V1)=true, Inc),
    relative_complement_all(Ii, [Inc], I).
`
	e := mustEngine(t, src, Options{Strict: true})
	events := stream.Stream{
		ev(10, "proximity_start(v1, v2)"),
		ev(60, "proximity_end(v1, v2)"),
		ev(5, "slow_start(v1)"),
		ev(50, "slow_end(v1)"),
		ev(15, "slow_start(v2)"),
		ev(70, "slow_end(v2)"),
		ev(30, "coast_in(v1)"),
		ev(40, "coast_out(v1)"),
		ev(99, "slow_start(v9)"),
	}
	rec, err := e.Run(events, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// proximity: [11,61); lowSpeed v1: [6,51); lowSpeed v2: [16,71);
	// intersection: [16,51); nearCoast v1: [31,41); complement: [16,31)+[41,51).
	checkIntervals(t, rec, "pilotOps(v1, v2)=true", intervals.List{ivl(16, 31), ivl(41, 51)})
}

func TestSDFluentWithGroundingDeclaration(t *testing.T) {
	src := `
inputEvent(slow_start(_)).
inputEvent(slow_end(_)).

vessel(v1).
vessel(v2).

grounding(idle(V)) :- vessel(V).

initiatedAt(lowSpeed(V)=true, T) :- happensAt(slow_start(V), T).
terminatedAt(lowSpeed(V)=true, T) :- happensAt(slow_end(V), T).

holdsFor(idle(V)=true, I) :-
    holdsFor(lowSpeed(V)=true, Il),
    union_all([Il], I).
`
	e := mustEngine(t, src, Options{Strict: true})
	events := stream.Stream{
		ev(10, "slow_start(v1)"),
		ev(20, "slow_end(v1)"),
		ev(30, "slow_start(v3)"), // v3 is not declared a vessel
		ev(40, "slow_end(v3)"),
	}
	rec, err := e.Run(events, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkIntervals(t, rec, "idle(v1)=true", intervals.List{ivl(11, 21)})
	if got := rec.IntervalsOfKey("idle(v3)=true"); len(got) != 0 {
		t.Fatalf("idle(v3) = %s, want empty (not in grounding domain)", got)
	}
	// lowSpeed itself is simple and ungated: v3 does get lowSpeed.
	checkIntervals(t, rec, "lowSpeed(v3)=true", intervals.List{ivl(31, 41)})
}

func TestHoldsAtConditionAcrossHierarchy(t *testing.T) {
	src := withinAreaED + `
inputEvent(velocity(_, _, _, _)).
thresholds(hcNearCoastMax, 5).

initiatedAt(highSpeedIn(Vl, AreaType)=true, T) :-
    happensAt(velocity(Vl, Speed, C, H), T),
    thresholds(hcNearCoastMax, Max),
    Speed > Max,
    holdsAt(withinArea(Vl, AreaType)=true, T).

terminatedAt(highSpeedIn(Vl, AreaType)=true, T) :-
    happensAt(velocity(Vl, Speed, C, H), T),
    thresholds(hcNearCoastMax, Max),
    Speed =< Max.
`
	e := mustEngine(t, src, Options{Strict: true})
	events := stream.Stream{
		ev(10, "entersArea(v1, a1)"),
		ev(20, "velocity(v1, 9.0, 0.0, 0.0)"), // fast inside fishing area
		ev(30, "velocity(v1, 2.0, 0.0, 0.0)"), // slows down
		ev(40, "velocity(v1, 9.0, 0.0, 0.0)"), // fast again
		ev(50, "leavesArea(v1, a1)"),
		ev(60, "velocity(v1, 1.0, 0.0, 0.0)"),
		ev(70, "velocity(v2, 9.0, 0.0, 0.0)"), // fast but not within any area
		ev(90, "gap_start(v9)"),
	}
	rec, err := e.Run(events, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkIntervals(t, rec, "highSpeedIn(v1, fishing)=true", intervals.List{ivl(21, 31), ivl(41, 61)})
	if got := rec.IntervalsOfKey("highSpeedIn(v2, fishing)=true"); len(got) != 0 {
		t.Fatalf("v2 = %s, want empty", got)
	}
	// The non-ground holdsAt enumerates area types: only 'fishing' matches.
	if got := rec.IntervalsOfKey("highSpeedIn(v1, anchorage)=true"); len(got) != 0 {
		t.Fatalf("anchorage = %s, want empty", got)
	}
}

func TestNegatedConditions(t *testing.T) {
	src := `
inputEvent(gap_start(_)).
inputEvent(gap_end(_)).
inputEvent(port_in(_)).
inputEvent(port_out(_)).

initiatedAt(nearPorts(V)=true, T) :- happensAt(port_in(V), T).
terminatedAt(nearPorts(V)=true, T) :- happensAt(port_out(V), T).

initiatedAt(gap(V)=nearPorts, T) :-
    happensAt(gap_start(V), T),
    holdsAt(nearPorts(V)=true, T).
initiatedAt(gap(V)=farFromPorts, T) :-
    happensAt(gap_start(V), T),
    not holdsAt(nearPorts(V)=true, T).
terminatedAt(gap(V)=nearPorts, T) :- happensAt(gap_end(V), T).
terminatedAt(gap(V)=farFromPorts, T) :- happensAt(gap_end(V), T).
`
	e := mustEngine(t, src, Options{Strict: true})
	events := stream.Stream{
		ev(5, "port_in(v1)"),
		ev(10, "gap_start(v1)"), // near ports
		ev(20, "gap_end(v1)"),
		ev(30, "port_out(v1)"),
		ev(40, "gap_start(v1)"), // far from ports
		ev(50, "gap_end(v1)"),
		ev(60, "port_in(v9)"),
	}
	rec, err := e.Run(events, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkIntervals(t, rec, "gap(v1)=nearPorts", intervals.List{ivl(11, 21)})
	checkIntervals(t, rec, "gap(v1)=farFromPorts", intervals.List{ivl(41, 51)})
}

func TestNegatedHappensAt(t *testing.T) {
	src := `
inputEvent(ping(_)).
inputEvent(mute(_)).

initiatedAt(active(V)=true, T) :-
    happensAt(ping(V), T),
    not happensAt(mute(V), T).
terminatedAt(active(V)=true, T) :-
    happensAt(mute(V), T).
`
	e := mustEngine(t, src, Options{Strict: true})
	events := stream.Stream{
		ev(10, "ping(v1)"),
		ev(10, "mute(v1)"), // simultaneous mute suppresses the initiation
		ev(20, "ping(v1)"),
		ev(30, "mute(v1)"),
		ev(99, "ping(v9)"),
	}
	rec, err := e.Run(events, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkIntervals(t, rec, "active(v1)=true", intervals.List{ivl(21, 31)})
}

func TestWindowedRunEquivalentToSingleWindow(t *testing.T) {
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	events := stream.Stream{
		ev(10, "entersArea(v1, a1)"),
		ev(200, "leavesArea(v1, a1)"), // interval spans many windows
		ev(210, "entersArea(v1, a2)"),
		ev(290, "gap_start(v1)"),
		ev(300, "entersArea(v2, a1)"),
		ev(399, "leavesArea(v2, a1)"),
	}
	single, err := e.Run(events, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, wnd := range []int64{50, 100, 400} {
		windowed, err := e.Run(events, RunOptions{Window: wnd})
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range single.Keys() {
			if !single.IntervalsOfKey(key).Equal(windowed.IntervalsOfKey(key)) {
				t.Fatalf("window=%d: %s = %s, want %s", wnd, key,
					windowed.IntervalsOfKey(key), single.IntervalsOfKey(key))
			}
		}
		if len(windowed.Keys()) != len(single.Keys()) {
			t.Fatalf("window=%d: keys %v vs %v", wnd, windowed.Keys(), single.Keys())
		}
	}
}

func TestWindowedSDFluentSpansWindows(t *testing.T) {
	src := `
inputEvent(slow_start(_)).
inputEvent(slow_end(_)).

initiatedAt(lowSpeed(V)=true, T) :- happensAt(slow_start(V), T).
terminatedAt(lowSpeed(V)=true, T) :- happensAt(slow_end(V), T).

holdsFor(idle(V)=true, I) :-
    holdsFor(lowSpeed(V)=true, Il),
    union_all([Il], I).
`
	e := mustEngine(t, src, Options{Strict: true})
	events := stream.Stream{
		ev(10, "slow_start(v1)"),
		ev(250, "slow_end(v1)"),
		ev(299, "slow_start(v9)"),
	}
	single, err := e.Run(events, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	windowed, err := e.Run(events, RunOptions{Window: 60})
	if err != nil {
		t.Fatal(err)
	}
	if !single.IntervalsOfKey("idle(v1)=true").Equal(windowed.IntervalsOfKey("idle(v1)=true")) {
		t.Fatalf("windowed = %s, want %s", windowed.IntervalsOfKey("idle(v1)=true"),
			single.IntervalsOfKey("idle(v1)=true"))
	}
}

func TestSlidingWindowOverlap(t *testing.T) {
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	events := stream.Stream{
		ev(10, "entersArea(v1, a1)"),
		ev(80, "leavesArea(v1, a1)"),
		ev(120, "gap_start(v9)"),
	}
	rec, err := e.Run(events, RunOptions{Window: 50, Slide: 25})
	if err != nil {
		t.Fatal(err)
	}
	checkIntervals(t, rec, "withinArea(v1, fishing)=true", intervals.List{ivl(11, 81)})
	if _, err := e.Run(events, RunOptions{Window: 50, Slide: 60}); err == nil {
		t.Fatal("slide > window must be rejected")
	}
}

func TestWarningsOnBadRules(t *testing.T) {
	src := `
initiatedAt(f(X)=true, T) :-
    holdsAt(g(X)=true, T).

terminatedAt(f(X)=true, T) :-
    happensAt(e(X), T).

holdsFor(h(X)=true, I) :-
    holdsFor(h(X)=true, I1),
    union_all([I1], I).
`
	ed, err := parser.ParseEventDescription(src)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(ed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, w := range e.Warnings() {
		msgs = append(msgs, w.String())
	}
	all := strings.Join(msgs, "\n")
	if !strings.Contains(all, "no positive happensAt") {
		t.Errorf("missing anchor warning in %q", all)
	}
	if !strings.Contains(all, "cyclic") {
		t.Errorf("missing cycle warning in %q", all)
	}
	// Strict mode fails instead.
	if _, err := New(ed, Options{Strict: true}); err == nil {
		t.Fatal("strict mode accepted bad rules")
	}
}

func TestMixedKindFluentWarning(t *testing.T) {
	src := `
inputEvent(e(_)).
initiatedAt(f(X)=true, T) :- happensAt(e(X), T).
holdsFor(f(X)=true, I) :-
    holdsFor(g(X)=true, I1),
    union_all([I1], I).
inputEvent(e2(_)).
initiatedAt(g(X)=true, T) :- happensAt(e2(X), T).
`
	ed, err := parser.ParseEventDescription(src)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(ed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, w := range e.Warnings() {
		if strings.Contains(w.Msg, "both as simple and statically determined") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing mixed-kind warning: %v", e.Warnings())
	}
}

func TestUnknownPredicateWarningAtRuntime(t *testing.T) {
	src := `
inputEvent(e(_)).
initiatedAt(f(X)=true, T) :-
    happensAt(e(X), T),
    mysteriousPredicate(X).
terminatedAt(f(X)=true, T) :- happensAt(e(X), T).
`
	e := mustEngine(t, src, Options{})
	rec, err := e.Run(stream.Stream{ev(10, "e(v1)"), ev(20, "e(v1)")}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.IntervalsOfKey("f(v1)=true")) != 0 {
		t.Fatal("undefined condition must fail the rule")
	}
	found := false
	for _, w := range rec.Warnings {
		if strings.Contains(w.Msg, "mysteriousPredicate") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing unknown-predicate warning: %v", rec.Warnings)
	}
}

func TestEmptyStreamAndEmptyTimeline(t *testing.T) {
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	rec, err := e.Run(nil, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Keys()) != 0 {
		t.Fatalf("empty stream produced %v", rec.Keys())
	}
	if _, err := e.Run(nil, RunOptions{Start: 10, End: 5}); err == nil {
		t.Fatal("inverted time-line accepted")
	}
}

func TestRecognitionAccessors(t *testing.T) {
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	events := stream.Stream{
		ev(10, "entersArea(v1, a1)"),
		ev(20, "leavesArea(v1, a1)"),
		ev(30, "gap_start(v9)"),
	}
	rec, err := e.Run(events, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fvp := parser.MustParseTerm("withinArea(v1, fishing)=true")
	if !rec.HoldsAt(fvp, 15) || rec.HoldsAt(fvp, 25) {
		t.Fatal("HoldsAt wrong")
	}
	if got := rec.IntervalsOf(fvp); !got.Equal(intervals.List{ivl(11, 21)}) {
		t.Fatalf("IntervalsOf = %s", got)
	}
	by := rec.ByFluent()
	if len(by["withinArea/2"]) != 1 {
		t.Fatalf("ByFluent = %v", by)
	}
	m := rec.FluentIntervals("withinArea/2", parser.MustParseTerm("true"))
	if len(m) != 1 {
		t.Fatalf("FluentIntervals = %v", m)
	}
	if rec.FVP("withinArea(v1, fishing)=true") == nil {
		t.Fatal("FVP lookup failed")
	}
}

func TestEngineIntrospection(t *testing.T) {
	e := mustEngine(t, withinAreaED, Options{Strict: true})
	if k, ok := e.FluentKindOf("withinArea/2"); !ok || k != Simple {
		t.Fatalf("FluentKindOf = %v, %v", k, ok)
	}
	if _, ok := e.FluentKindOf("nope/1"); ok {
		t.Fatal("unknown fluent reported defined")
	}
	if len(e.Fluents()) != 1 {
		t.Fatalf("Fluents = %v", e.Fluents())
	}
	if !strings.Contains(e.Describe(), "withinArea/2") {
		t.Fatalf("Describe = %q", e.Describe())
	}
}
