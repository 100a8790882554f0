// Package ais provides the synthetic Automatic Identification System
// substrate that stands in for the Brest dataset of the paper's evaluation:
// position-signal messages and a deterministic trajectory builder with which
// maritime scenarios (trawling sweeps, tug convoys, pilot rendezvous,
// drifting, communication gaps, ...) are scripted.
package ais

import (
	"math"
	"math/rand"
	"sort"

	"rtecgen/internal/geo"
)

// KnotsToKmPerSec converts speed in knots to kilometres per second.
const KnotsToKmPerSec = 1.852 / 3600

// Message is one AIS position signal.
type Message struct {
	Time    int64     // seconds since scenario start
	Vessel  string    // vessel identifier, e.g. "v17"
	Pos     geo.Point // position on the planar map, km
	SpeedKn float64   // speed over ground, knots
	Heading float64   // true heading, degrees [0, 360)
	COG     float64   // course over ground, degrees [0, 360)
}

// SortMessages orders messages by time, then vessel, in place.
func SortMessages(msgs []Message) {
	sort.SliceStable(msgs, func(i, j int) bool {
		if msgs[i].Time != msgs[j].Time {
			return msgs[i].Time < msgs[j].Time
		}
		return msgs[i].Vessel < msgs[j].Vessel
	})
}

// Track builds a vessel trajectory as a sequence of behaviour legs, emitting
// one message every Interval seconds (except during communication gaps). All
// randomness is drawn from the track's own seeded source, so scenarios are
// fully deterministic.
type Track struct {
	Vessel   string
	Type     string
	Interval int64

	rng     *rand.Rand
	t       int64
	pos     geo.Point
	heading float64
	msgs    []Message
	inGap   bool
}

// NewTrack starts a track for a vessel at the given position and time.
func NewTrack(vessel, vesselType string, start geo.Point, t0, interval int64, seed int64) *Track {
	return &Track{
		Vessel:   vessel,
		Type:     vesselType,
		Interval: interval,
		rng:      rand.New(rand.NewSource(seed)),
		t:        t0,
		pos:      start,
		heading:  0,
	}
}

// Messages returns the emitted messages so far.
func (tr *Track) Messages() []Message { return tr.msgs }

// Pos returns the current position.
func (tr *Track) Pos() geo.Point { return tr.pos }

// Time returns the current time.
func (tr *Track) Time() int64 { return tr.t }

// emit records a message unless the vessel is inside a communication gap.
func (tr *Track) emit(speedKn, heading, cog float64) {
	tr.heading = heading
	if tr.inGap {
		return
	}
	tr.msgs = append(tr.msgs, Message{
		Time:    tr.t,
		Vessel:  tr.Vessel,
		Pos:     tr.pos,
		SpeedKn: speedKn,
		Heading: norm360(heading),
		COG:     norm360(cog),
	})
}

func norm360(a float64) float64 {
	a = math.Mod(a, 360)
	if a < 0 {
		a += 360
	}
	return a
}

// jitter returns v perturbed by at most ±amp (uniform).
func (tr *Track) jitter(v, amp float64) float64 {
	return v + (tr.rng.Float64()*2-1)*amp
}

// advance moves the vessel along cog for one interval at the given speed and
// emits a message with the stated heading.
func (tr *Track) advance(speedKn, heading, cog float64) {
	tr.emit(speedKn, heading, cog)
	dist := speedKn * KnotsToKmPerSec * float64(tr.Interval)
	tr.pos = tr.pos.Step(cog, dist)
	tr.t += tr.Interval
}

// SailTo sails in a straight line to dest at the given speed (with light
// speed/heading noise), arriving when within one step of dest.
func (tr *Track) SailTo(dest geo.Point, speedKn float64) *Track {
	if speedKn <= 0 {
		return tr
	}
	step := speedKn * KnotsToKmPerSec * float64(tr.Interval)
	for tr.pos.Distance(dest) > step {
		bearing := tr.pos.BearingTo(dest)
		s := math.Max(0.3, tr.jitter(speedKn, 0.3))
		h := tr.jitter(bearing, 2)
		tr.advance(s, h, h)
	}
	tr.pos = dest
	return tr
}

// SailBearing sails on a fixed bearing for the given duration.
func (tr *Track) SailBearing(bearing, speedKn float64, dur int64) *Track {
	for end := tr.t + dur; tr.t < end; {
		s := math.Max(0.3, tr.jitter(speedKn, 0.3))
		h := tr.jitter(bearing, 2)
		tr.advance(s, h, h)
	}
	return tr
}

// Stop keeps the vessel (nearly) stationary for the duration.
func (tr *Track) Stop(dur int64) *Track {
	for end := tr.t + dur; tr.t < end; {
		tr.advance(math.Abs(tr.jitter(0.1, 0.1)), tr.heading, tr.heading)
	}
	return tr
}

// Loiter wanders slowly around the current position for the duration: low
// speed, frequent small course changes.
func (tr *Track) Loiter(speedKn float64, dur int64) *Track {
	anchor := tr.pos
	h := tr.heading
	for end := tr.t + dur; tr.t < end; {
		// Drift back toward the anchor point when far from it.
		if tr.pos.Distance(anchor) > 1.0 {
			h = tr.pos.BearingTo(anchor)
		} else {
			h = norm360(h + tr.jitter(0, 40))
		}
		s := math.Max(0.6, tr.jitter(speedKn, 0.5))
		tr.advance(s, h, h)
	}
	return tr
}

// Zigzag performs a sweep with regular sharp course changes (trawling or
// search-and-rescue patterns): legs of legDur seconds alternating turnDeg
// degrees around the base bearing.
func (tr *Track) Zigzag(baseBearing, speedKn, turnDeg float64, legDur, dur int64) *Track {
	sign := 1.0
	for end := tr.t + dur; tr.t < end; {
		h := norm360(baseBearing + sign*turnDeg)
		for legEnd := tr.t + legDur; tr.t < legEnd && tr.t < end; {
			s := math.Max(0.5, tr.jitter(speedKn, 0.3))
			tr.advance(s, h, h)
		}
		sign = -sign
	}
	return tr
}

// ZigzagSpeeds is a Zigzag that also alternates between two speeds on each
// leg — the search-and-rescue movement pattern (speed and heading changes).
func (tr *Track) ZigzagSpeeds(baseBearing, lowKn, highKn, turnDeg float64, legDur, dur int64) *Track {
	sign := 1.0
	speed := highKn
	for end := tr.t + dur; tr.t < end; {
		h := norm360(baseBearing + sign*turnDeg)
		for legEnd := tr.t + legDur; tr.t < legEnd && tr.t < end; {
			s := math.Max(0.5, tr.jitter(speed, 0.2))
			tr.advance(s, h, h)
		}
		sign = -sign
		if speed == highKn {
			speed = lowKn
		} else {
			speed = highKn
		}
	}
	return tr
}

// Drift moves the vessel with course-over-ground offset from its heading by
// driftDeg (wind/current pushing it sideways) for the duration.
func (tr *Track) Drift(heading, driftDeg, speedKn float64, dur int64) *Track {
	for end := tr.t + dur; tr.t < end; {
		h := tr.jitter(heading, 1)
		cog := norm360(h + driftDeg)
		s := math.Max(0.4, tr.jitter(speedKn, 0.2))
		tr.advance(s, h, cog)
	}
	return tr
}

// Gap suppresses transmissions for the duration while the vessel continues
// on its current heading at the given speed.
func (tr *Track) Gap(speedKn float64, dur int64) *Track {
	tr.inGap = true
	for end := tr.t + dur; tr.t < end; {
		tr.advance(speedKn, tr.heading, tr.heading)
	}
	tr.inGap = false
	return tr
}

// Wait advances time without moving or emitting (vessel not yet active).
func (tr *Track) Wait(dur int64) *Track {
	tr.inGap = true
	for end := tr.t + dur; tr.t < end; {
		tr.advance(0, tr.heading, tr.heading)
	}
	tr.inGap = false
	return tr
}
