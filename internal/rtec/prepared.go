package rtec

import (
	"slices"
	"sort"
	"strconv"
	"sync"

	"rtecgen/internal/lang"
	"rtecgen/internal/stream"
	"rtecgen/internal/telemetry"
)

// This file splits batch recognition into "prepare once" and "run many". A
// Prepared holds everything about a batch run that depends on the stream and
// the window geometry but not on the event description: the sorted copy, the
// time-line and each window's event indexes. Engine.RunPrepared drains the
// one run loop (streamRun) over those windows; Run and RunWindows prepare a
// private Prepared and call it.
//
// A Prepared built by Prepare also carries the fluent table that lets
// several event descriptions run over one stream without re-deriving what
// they have in common (the paper pipeline runs the gold description, three
// corrected ones and a dozen refine rounds over one stream, and those are
// near-copies of each other): a fluent whose definition, dependency closure
// and background knowledge are the same in two engines has the same
// intervals and warnings in the same window, so the second engine installs
// what the first one computed. It does so in every window, whatever the
// geometry: a run over a table-carrying Prepared evaluates what it misses in
// full, never through the delta layer. See the definition fingerprint in
// engine.go for what "the same" covers, and evalFluent for the two sides of
// the table.

// windowIndex holds the events of one window indexed the ways rule
// evaluation reads them. A Prepared's indexes are immutable once built, so
// they are shared by every engine run over it; the only index that changes is
// the one a streaming run keeps for a revisable window, which takes each late
// event through insert between two evaluations.
type windowIndex struct {
	n         int // events in the window
	byIndTime map[lang.PredKey]map[int64][]*lang.Term
	byInd     map[lang.PredKey][]timedEvent
}

// timedEvent is an event with the Int term of its time-point, which a rule's
// time variable binds to. The term is built once per time-point of the
// window and shared by the events there.
type timedEvent struct {
	stream.Event
	at *lang.Term
}

// indexWindow indexes the (time-sorted) events of one window.
func indexWindow(events stream.Stream) *windowIndex {
	x := &windowIndex{
		n:         len(events),
		byIndTime: map[lang.PredKey]map[int64][]*lang.Term{},
		byInd:     map[lang.PredKey][]timedEvent{},
	}
	var at *lang.Term
	for _, ev := range events {
		if at == nil || at.Int != ev.Time {
			at = lang.NewInt(ev.Time)
		}
		pred := ev.Atom.Pred()
		x.byInd[pred] = append(x.byInd[pred], timedEvent{ev, at})
		byTime := x.byIndTime[pred]
		if byTime == nil {
			byTime = map[int64][]*lang.Term{}
			x.byIndTime[pred] = byTime
		}
		byTime[ev.Time] = append(byTime[ev.Time], ev.Atom)
	}
	return x
}

// insert adds e to the index of a streaming window that still takes late
// events: x holds what indexWindow gave over the window's buffered events
// before e was admitted, and buf is the reorder buffer with e in it. The
// buffer keeps its events in canonical (time, rendered atom) order, so its
// events of e's predicate at e's time-point, in turn, are the entries
// indexWindow would give x there now: x's entries at that time-point grow by
// one slot and are rewritten from them, and nothing else moves. The entries
// share the time-point's at term when x has one.
func (x *windowIndex) insert(buf stream.Stream, e stream.Event) {
	t, pred := e.Time, e.Atom.Pred()
	byTime := x.byIndTime[pred]
	if byTime == nil {
		byTime = map[int64][]*lang.Term{}
		x.byIndTime[pred] = byTime
	}
	evs := x.byInd[pred]
	lo := sort.Search(len(evs), func(i int) bool { return evs[i].Time >= t })
	at := x.atTerm(t)
	evs = slices.Insert(evs, lo+len(byTime[t]), timedEvent{})
	atoms := append(byTime[t], nil)
	k := 0
	for _, ev := range buf.Window(t, t+1) {
		if ev.Atom.Pred() == pred {
			evs[lo+k] = timedEvent{ev, at}
			atoms[k] = ev.Atom
			k++
		}
	}
	x.byInd[pred], byTime[t] = evs, atoms
	x.n++
}

// atTerm returns the Int term the events of x at time-point t share, or a
// new one when x has none there.
func (x *windowIndex) atTerm(t int64) *lang.Term {
	for _, evs := range x.byInd {
		i := sort.Search(len(evs), func(i int) bool { return evs[i].Time >= t })
		if i < len(evs) && evs[i].Time == t {
			return evs[i].at
		}
	}
	return lang.NewInt(t)
}

// Prepared is a stream planned and indexed for batch recognition under one
// window geometry. It is immutable apart from its fluent table, which is
// safe for concurrent use: any number of engines may RunPrepared the same
// Prepared at once.
type Prepared struct {
	events  stream.Stream  // sorted copy of the stream
	tl      *timeline      // nil: a whole-stream time-line over no events, which has no windows
	windows []*windowIndex // per window of tl
	table   *fluentTable   // nil on the private Prepared of Run and RunWindows
}

// Prepare sorts a copy of the stream, resolves opts against it and indexes
// the events of every window. Running several engines over the returned
// Prepared shares that work, and the evaluation of every fluent the engines
// define identically (see RunPrepared).
func Prepare(events stream.Stream, opts RunOptions) (*Prepared, error) {
	p, err := prepare(events, opts)
	if err != nil {
		return nil, err
	}
	// A variable in an event is a constant to the unifier, told apart from
	// others by its name; definitions that differ only in variable names
	// share table entries, so such a stream gets no table.
	for _, ev := range p.events {
		if !ev.Atom.IsGround() {
			return p, nil
		}
	}
	p.table = &fluentTable{ids: map[string]int32{}}
	return p, nil
}

// prepare is Prepare without the fluent table: all a run needs whose
// Prepared no second engine will see.
func prepare(events stream.Stream, opts RunOptions) (*Prepared, error) {
	p := &Prepared{events: make(stream.Stream, len(events))}
	copy(p.events, events)
	p.events.Sort()
	tl, empty, err := planTimeline(p.events, opts)
	if err != nil || empty {
		return p, err
	}
	p.tl = tl
	p.windows = make([]*windowIndex, tl.n)
	for i := range p.windows {
		p.windows[i] = indexWindow(p.events.Window(tl.windowStart(i), tl.q(i)))
	}
	return p, nil
}

// fluentTable records, per (definition fingerprint, window), what evaluating
// a fluent stored and warned, for every later engine with the same
// fingerprint to install. Fingerprints are exact texts; the table interns
// them to small integers of its own.
type fluentTable struct {
	mu      sync.Mutex
	ids     map[string]int32 // fingerprint text -> id, from 1
	results sync.Map         // sharedKey -> *sharedResult, written once per key
}

type sharedKey struct {
	fp     int32
	window int32
}

// sharedResult is one fluent's evaluation in one window: the warnings it
// raised and the interval lists it stored, each in the order it produced
// them. Both hold only immutable values (ground terms, interval lists), so
// a result is read by any number of runs without copying.
type sharedResult struct {
	exact    string // with warnings: the publisher's definition with its variable names (fluentDef.exactText)
	warnings []Warning
	entries  []listEntry
}

func (t *fluentTable) intern(text []byte) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.ids[string(text)]
	if !ok {
		id = int32(len(t.ids)) + 1
		t.ids[string(text)] = id
	}
	return id
}

// fingerprints resolves the engine's definition fingerprints against the
// table: per fingerprinted fluent, the id of its own text, the background
// knowledge's id and its dependencies' ids. Fluents are visited in stratum
// order, so a dependency's id exists before its dependents ask for it.
func (t *fluentTable) fingerprints(e *Engine) map[string]int32 {
	e.fingerprint()
	kbID := t.intern(e.kbText)
	fps := make(map[string]int32, len(e.order))
	var buf []byte
	for _, ind := range e.order {
		def := e.fluents[ind]
		if def.text == "" {
			continue
		}
		buf = append(buf[:0], def.text...)
		buf = appendPart(buf, "kb")
		buf = strconv.AppendInt(buf, int64(kbID), 10)
		for _, dep := range def.sortedDeps {
			buf = appendPart(buf, dep)
			buf = strconv.AppendInt(buf, int64(fps[dep]), 10)
		}
		fps[ind] = t.intern(buf)
	}
	return fps
}

// appendPart appends one component of a fingerprint text, preceded by its
// length: no component's content can then be read as a boundary.
func appendPart(dst []byte, s string) []byte {
	dst = strconv.AppendInt(dst, int64(len(s)), 10)
	dst = append(dst, ':')
	return append(dst, s...)
}

// sharedRun is one engine's view of a Prepared's fluent table during one
// run: the engine's fingerprint ids and the run's two counters.
type sharedRun struct {
	table        *fluentTable
	fps          map[string]int32 // fluent indicator -> fingerprint id; absent: evaluate, never share
	hits, misses *telemetry.Counter
}

// sharedWindow places one window evaluation in a shared run: index is the
// window's position in the Prepared. A nil run shares nothing.
type sharedWindow struct {
	run   *sharedRun
	index int32
}

// load returns the recorded result of a fluent in a window, or nil. A result
// that carries warnings is only good for a definition with the publisher's
// variable names, because warnings print them; intervals do not depend on
// what a variable is called.
func (s *sharedRun) load(key sharedKey, def *fluentDef) *sharedResult {
	v, ok := s.table.results.Load(key)
	if !ok {
		return nil
	}
	res := v.(*sharedResult)
	if len(res.warnings) > 0 && res.exact != def.exactText() {
		return nil
	}
	return res
}
