package analysis

import (
	"testing"

	"rtecgen/internal/parser"
)

// TestCanonicalClauseAllocCeiling: R006 and R011 key every clause of every
// lint (and every AutoFix round re-lints) by its canonical text, so the key
// is written in one pass over the parsed terms. A count, so it repeats across
// hosts: measured 2 on this eleven-condition rule; numbering the clause into
// a copy, renaming the copy's variables into a second one and printing that
// read 195.
func TestCanonicalClauseAllocCeiling(t *testing.T) {
	c := parser.MustParseClause(`
initiatedAt(trawlingMovement(Vl)=true, T) :-
    happensAt(change_in_heading(Vl), T),
    vesselType(Vl, fishingVessel),
    holdsAt(withinArea(Vl, fishing)=true, T),
    not holdsAt(gap(Vl)=nearPorts, T),
    not holdsAt(gap(Vl)=farFromPorts, T),
    holdsAt(movingSpeed(Vl)=Band, T),
    thresholds(trawlSpeedMin, Min),
    thresholds(trawlSpeedMax, Max),
    happensAt(velocity(Vl, Speed, CoG, Heading), T),
    Speed >= Min,
    Speed =< Max.`)
	if len(c.Body) < 10 {
		t.Fatalf("the rule has %d conditions", len(c.Body))
	}
	var key string
	allocs := testing.AllocsPerRun(20, func() { key = canonicalClause(c) })
	const want = "initiatedAt(trawlingMovement(_1)=true, _2) :-\n    happensAt(change_in_heading(_1), _2),\n"
	if len(key) < len(want) || key[:len(want)] != want {
		t.Fatalf("canonical key starts %q", key)
	}
	t.Logf("%d bytes, %.0f allocs", len(key), allocs)
	if allocs > 16 {
		t.Fatalf("canonicalClause allocates %.0f objects on a %d-condition rule, ceiling 16", allocs, len(c.Body))
	}
}
