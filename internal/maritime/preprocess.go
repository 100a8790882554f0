package maritime

import (
	"fmt"
	"math"
	"sort"

	"rtecgen/internal/ais"
	"rtecgen/internal/geo"
	"rtecgen/internal/kb"
	"rtecgen/internal/lang"
	"rtecgen/internal/stream"
)

// PreprocessConfig holds the thresholds of the critical-event detection that
// turns raw AIS position signals into the RTEC input events (the "online
// processing of vessel position signals" of the paper).
type PreprocessConfig struct {
	GapSeconds   int64   // silence longer than this is a communication gap
	StoppedMax   float64 // speed below which a vessel counts as stopped (kn)
	SlowMax      float64 // speed below which a vessel is in slow motion (kn)
	SpeedDelta   float64 // speed change between signals starting a change_in_speed (kn)
	HeadingDelta float64 // heading change between signals emitting change_in_heading (deg)
	ProximityKm  float64 // distance under which two vessels are in proximity
}

// DefaultPreprocessConfig mirrors the thresholds used in maritime CER
// literature (e.g. Pitsikalis et al. 2019), adapted to the synthetic map.
func DefaultPreprocessConfig() PreprocessConfig {
	return PreprocessConfig{
		GapSeconds:   1800,
		StoppedMax:   0.5,
		SlowMax:      5,
		SpeedDelta:   2.5,
		HeadingDelta: 30,
		ProximityKm:  0.5,
	}
}

// vesselState tracks the per-vessel detection state machines.
type vesselState struct {
	hasPrev  bool
	prevTime int64
	prevMsg  ais.Message
	areas    map[string]bool
	stopped  bool
	slow     bool
	changing bool
}

// Preprocess derives the RTEC input-event stream from AIS messages: velocity
// signals, stop/slow-motion/speed-change/heading-change critical points,
// area entries and exits, communication gaps, and pairwise proximity. The
// returned stream is sorted.
func Preprocess(msgs []ais.Message, m *geo.Map, cfg PreprocessConfig) stream.Stream {
	sorted := make([]ais.Message, len(msgs))
	copy(sorted, msgs)
	ais.SortMessages(sorted)

	p := NewPreprocessor(m, cfg)
	var out stream.Stream
	for _, msg := range sorted {
		out = append(out, p.Feed(msg)...)
	}
	out = append(out, p.Flush()...)
	out.Sort()
	return out
}

// Preprocessor is the incremental form of Preprocess: it consumes AIS
// messages one at a time in (Time, Vessel) order — the order SortMessages
// produces — holding only the per-vessel detection state and the current
// timestamp's message batch, so arbitrarily long streams preprocess in
// memory bounded by the fleet size.
//
// The concatenation of every Feed return value plus the final Flush is the
// same event multiset, emitted in the same sequence, as Preprocess over the
// whole message slice — sorting it yields a byte-identical stream. The
// emission itself is NOT globally time-ordered: a communication gap emits
// its gap_start backdated to the vessel's last signal before the silence,
// i.e. the full gap duration behind the frontier. Streaming consumers
// therefore need a disorder tolerance of at least the longest silence they
// expect (rtec StreamOptions.MaxDelay) to admit every event.
type Preprocessor struct {
	m      *geo.Map
	cfg    PreprocessConfig
	states map[string]*vesselState
	prox   *proximityTracker
	batch  []ais.Message
}

// NewPreprocessor starts an incremental preprocessing pass.
func NewPreprocessor(m *geo.Map, cfg PreprocessConfig) *Preprocessor {
	return &Preprocessor{
		m:      m,
		cfg:    cfg,
		states: map[string]*vesselState{},
		prox:   newProximityTracker(cfg.ProximityKm, cfg.GapSeconds),
	}
}

// Feed applies one message and returns the events it gives rise to.
// Messages must arrive in nondecreasing (Time, Vessel) order. The returned
// slice is only valid until the next call; append it elsewhere to keep it.
func (p *Preprocessor) Feed(msg ais.Message) stream.Stream {
	var out stream.Stream
	emit := func(t int64, functor string, args ...*lang.Term) {
		out = append(out, stream.Event{Time: t, Atom: lang.NewCompound(functor, args...)})
	}
	atom := lang.NewAtom

	// Proximity is evaluated once per timestamp, after every message of that
	// timestamp has been applied; evaluating mid-timestamp against stale
	// positions produces spurious end/start flickers.
	if len(p.batch) > 0 && p.batch[0].Time != msg.Time {
		p.flushProximity(emit)
	}
	p.batch = append(p.batch, msg)

	st := p.states[msg.Vessel]
	if st == nil {
		st = &vesselState{areas: map[string]bool{}}
		p.states[msg.Vessel] = st
	}
	v := atom(msg.Vessel)

	gapEnded := false
	if st.hasPrev && msg.Time-st.prevTime > p.cfg.GapSeconds {
		// The gap started when we last heard from the vessel.
		emit(st.prevTime, "gap_start", v)
		emit(msg.Time, "gap_end", v)
		gapEnded = true
		// Gap resets the state machines; current conditions re-initiate.
		st.stopped, st.slow, st.changing = false, false, false
		st.areas = map[string]bool{}
	}

	// Velocity signal at every message.
	emit(msg.Time, "velocity", v,
		lang.NewFloat(round2(msg.SpeedKn)),
		lang.NewFloat(round2(msg.COG)),
		lang.NewFloat(round2(msg.Heading)))

	// Area transitions.
	cur := map[string]bool{}
	for _, a := range p.m.AreasAt(msg.Pos) {
		cur[a.ID] = true
	}
	curIDs := sortedKeys(cur)
	for _, id := range curIDs {
		if !st.areas[id] {
			emit(msg.Time, "entersArea", v, atom(id))
		}
	}
	for _, id := range sortedKeys(st.areas) {
		if !cur[id] {
			emit(msg.Time, "leavesArea", v, atom(id))
		}
	}
	st.areas = cur

	// Stop / slow-motion state machines.
	isStopped := msg.SpeedKn < p.cfg.StoppedMax
	isSlow := !isStopped && msg.SpeedKn < p.cfg.SlowMax
	if isStopped != st.stopped {
		if isStopped {
			emit(msg.Time, "stop_start", v)
		} else {
			emit(msg.Time, "stop_end", v)
		}
		st.stopped = isStopped
	}
	if isSlow != st.slow {
		if isSlow {
			emit(msg.Time, "slow_motion_start", v)
		} else {
			emit(msg.Time, "slow_motion_end", v)
		}
		st.slow = isSlow
	}

	// Speed- and heading-change detection needs a previous signal from
	// before the current leg (not across a gap).
	if st.hasPrev && !gapEnded {
		dSpeed := math.Abs(msg.SpeedKn - st.prevMsg.SpeedKn)
		if !st.changing && dSpeed > p.cfg.SpeedDelta {
			emit(msg.Time, "change_in_speed_start", v)
			st.changing = true
		} else if st.changing && dSpeed < p.cfg.SpeedDelta/2 {
			emit(msg.Time, "change_in_speed_end", v)
			st.changing = false
		}
		if kb.AngleDiff(msg.Heading, st.prevMsg.Heading) > p.cfg.HeadingDelta {
			emit(msg.Time, "change_in_heading", v)
		}
	}

	st.hasPrev = true
	st.prevTime = msg.Time
	st.prevMsg = msg
	return out
}

// Flush ends the stream: it evaluates proximity over the final timestamp's
// batch and returns the resulting events. The preprocessor must not be fed
// again afterwards.
func (p *Preprocessor) Flush() stream.Stream {
	var out stream.Stream
	p.flushProximity(func(t int64, functor string, args ...*lang.Term) {
		out = append(out, stream.Event{Time: t, Atom: lang.NewCompound(functor, args...)})
	})
	return out
}

func (p *Preprocessor) flushProximity(emit func(t int64, functor string, args ...*lang.Term)) {
	for _, pe := range p.prox.step(p.batch) {
		emit(pe.t, pe.functor, lang.NewAtom(pe.v1), lang.NewAtom(pe.v2))
	}
	p.batch = p.batch[:0]
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// proximityTracker maintains last-known vessel positions on a spatial hash
// and reports proximity_start/proximity_end transitions for ordered pairs.
type proximityTracker struct {
	radius  float64
	staleBy int64
	cells   map[[2]int]map[string]bool
	pos     map[string]ais.Message
	close   map[[2]string]bool
}

type pairEvent struct {
	t       int64
	functor string
	v1, v2  string
}

func newProximityTracker(radius float64, staleBy int64) *proximityTracker {
	return &proximityTracker{
		radius:  radius,
		staleBy: staleBy,
		cells:   map[[2]int]map[string]bool{},
		pos:     map[string]ais.Message{},
		close:   map[[2]string]bool{},
	}
}

func (p *proximityTracker) cellOf(pt geo.Point) [2]int {
	return [2]int{int(math.Floor(pt.X / p.radius)), int(math.Floor(pt.Y / p.radius))}
}

func orderedPair(a, b string) [2]string {
	if a < b {
		return [2]string{a, b}
	}
	return [2]string{b, a}
}

// step applies all messages of one timestamp and returns the proximity
// transitions they cause, at that timestamp.
func (p *proximityTracker) step(batch []ais.Message) []pairEvent {
	if len(batch) == 0 {
		return nil
	}
	now := batch[0].Time
	updated := make([]string, 0, len(batch))
	for _, msg := range batch {
		if old, ok := p.pos[msg.Vessel]; ok {
			delete(p.cells[p.cellOf(old.Pos)], msg.Vessel)
		}
		p.pos[msg.Vessel] = msg
		nc := p.cellOf(msg.Pos)
		if p.cells[nc] == nil {
			p.cells[nc] = map[string]bool{}
		}
		p.cells[nc][msg.Vessel] = true
		updated = append(updated, msg.Vessel)
	}
	sort.Strings(updated)

	var events []pairEvent
	done := map[[2]string]bool{}
	for _, vessel := range updated {
		msg := p.pos[vessel]
		nc := p.cellOf(msg.Pos)

		// Vessels now within radius (scan neighbouring cells).
		nowClose := map[string]bool{}
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for other := range p.cells[[2]int{nc[0] + dx, nc[1] + dy}] {
					if other == vessel {
						continue
					}
					om := p.pos[other]
					if now-om.Time > p.staleBy {
						continue // other vessel silent: proximity not held
					}
					if om.Pos.Distance(msg.Pos) <= p.radius {
						nowClose[other] = true
					}
				}
			}
		}

		var affected []string
		for pair := range p.close {
			if pair[0] == vessel || pair[1] == vessel {
				other := pair[0]
				if other == vessel {
					other = pair[1]
				}
				affected = append(affected, other)
			}
		}
		sort.Strings(affected)
		for _, other := range affected {
			pair := orderedPair(vessel, other)
			if !nowClose[other] && !done[pair] {
				done[pair] = true
				delete(p.close, pair)
				events = append(events, pairEvent{now, "proximity_end", pair[0], pair[1]})
			}
		}
		for _, other := range sortedKeys(nowClose) {
			pair := orderedPair(vessel, other)
			if !p.close[pair] && !done[pair] {
				done[pair] = true
				p.close[pair] = true
				events = append(events, pairEvent{now, "proximity_start", pair[0], pair[1]})
			}
		}
	}
	return events
}

// DynamicFacts derives the entity-registry facts of a stream: vessel/1 for
// every vessel mentioned and vesselPair/2 for every proximity pair, for use
// as rtec.Options.ExtraFacts. The fleet's declared vessels are included even
// if silent.
func DynamicFacts(events stream.Stream, fleet []Vessel) []*lang.Term {
	seen := map[string]bool{}
	var out []*lang.Term
	add := func(f *lang.Term) {
		key := f.String()
		if !seen[key] {
			seen[key] = true
			out = append(out, f)
		}
	}
	for _, v := range fleet {
		add(lang.NewCompound("vessel", lang.NewAtom(v.ID)))
	}
	for _, e := range events {
		switch e.Atom.Functor {
		case "velocity", "gap_start", "stop_start":
			if len(e.Atom.Args) >= 1 {
				add(lang.NewCompound("vessel", e.Atom.Args[0]))
			}
		case "proximity_start":
			if len(e.Atom.Args) == 2 {
				add(lang.NewCompound("vesselPair", e.Atom.Args[0], e.Atom.Args[1]))
			}
		}
	}
	return out
}

// Validate sanity-checks a preprocessing config.
func (c PreprocessConfig) Validate() error {
	if c.GapSeconds <= 0 || c.StoppedMax <= 0 || c.SlowMax <= c.StoppedMax ||
		c.SpeedDelta <= 0 || c.HeadingDelta <= 0 || c.ProximityKm <= 0 {
		return fmt.Errorf("maritime: invalid preprocessing config %+v", c)
	}
	return nil
}
