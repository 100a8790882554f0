package stream

import (
	"fmt"
	"slices"
	"sort"
)

// Admission is the verdict of the reorder buffer on one arriving event.
type Admission int

const (
	// Admitted means the event arrived in order (at or ahead of the
	// frontier) and joined the buffer.
	Admitted Admission = iota
	// AdmittedLate means the event arrived out of order — behind the event
	// times already seen — but within the bounded delay, and joined the
	// buffer. Consumers that have already acted on the event's time range
	// must revise.
	AdmittedLate
	// Duplicate means an event with the same time-point and atom text is
	// already buffered; the arrival was counted and discarded.
	Duplicate
	// TooLate means the event's time-point is behind the watermark (older
	// than the bounded delay allows); it was counted and dropped, never
	// silently reordered into the past.
	TooLate
)

func (a Admission) String() string {
	switch a {
	case Admitted:
		return "admitted"
	case AdmittedLate:
		return "admitted-late"
	case Duplicate:
		return "duplicate"
	default:
		return "too-late"
	}
}

// DisorderStats counts the admission verdicts of a reorder buffer.
type DisorderStats struct {
	// Observed is the total number of events pushed.
	Observed int64
	// Accepted counts admitted events (in-order plus late-within-bound).
	Accepted int64
	// Late counts accepted events that arrived behind the frontier.
	Late int64
	// Duplicates counts discarded exact-duplicate arrivals.
	Duplicates int64
	// Dropped counts events behind the watermark, dropped as too late.
	Dropped int64
}

// String renders the stats as a one-line report.
func (d DisorderStats) String() string {
	return fmt.Sprintf("observed=%d accepted=%d late=%d duplicates=%d dropped=%d",
		d.Observed, d.Accepted, d.Late, d.Duplicates, d.Dropped)
}

// Reorder is a bounded-delay reorder buffer: events arrive in any order,
// and the buffer tracks a watermark trailing the maximum event time seen
// (the frontier) by MaxDelay time-points. Events behind the watermark are
// dropped and counted; exact duplicates of buffered events are discarded
// and counted; everything else is admitted into a sorted buffer.
//
// Two consumption styles are supported. In-order consumers call Release
// with the watermark to pop the settled prefix in canonical order.
// Revising consumers (the RTEC streaming engine) read the whole Buffered
// view, re-evaluate what a late admission invalidated, and call Drop once a
// horizon can no longer be revised. A Reorder is not safe for concurrent
// use.
type Reorder struct {
	maxDelay int64
	frontier int64
	started  bool
	buf      Stream            // admitted events, sorted by (time, atom text)
	text     []string          // text[i] is buf[i].Atom.String(), rendered once at admission
	seen     map[eventKey]bool // keys of buffered (not yet dropped) events
	stats    DisorderStats
	// highWater is the maximum buffer occupancy observed over the lifetime
	// of this Reorder. It is observability state, not recognition state, so
	// checkpoints do not persist it: a resumed run starts a fresh high-water
	// mark for its own process lifetime.
	highWater int
}

// NewReorder returns an empty reorder buffer with the given delay bound.
// A bound of zero tolerates no disorder: any event behind the frontier is
// dropped as too late.
func NewReorder(maxDelay int64) *Reorder {
	if maxDelay < 0 {
		maxDelay = 0
	}
	return &Reorder{maxDelay: maxDelay, seen: map[eventKey]bool{}}
}

// MaxDelay returns the delay bound.
func (r *Reorder) MaxDelay() int64 { return r.maxDelay }

// Frontier returns the maximum event time admitted so far; ok is false
// before the first admission.
func (r *Reorder) Frontier() (t int64, ok bool) { return r.frontier, r.started }

// Watermark returns frontier − MaxDelay: the past is closed below it. ok is
// false before the first admission.
func (r *Reorder) Watermark() (t int64, ok bool) {
	if !r.started {
		return 0, false
	}
	return r.frontier - r.maxDelay, true
}

// Stats returns the admission counters so far.
func (r *Reorder) Stats() DisorderStats { return r.stats }

// Occupancy returns the number of events currently buffered.
func (r *Reorder) Occupancy() int { return len(r.buf) }

// HighWater returns the maximum occupancy observed since construction — how
// deep the reorder buffer has had to hold back the revisable past.
func (r *Reorder) HighWater() int { return r.highWater }

// Push classifies one arriving event and, when admitted, inserts it into
// the sorted buffer. The atom is rendered once, unless the event is too
// late; the text orders, deduplicates and checkpoints it from then on, and
// Push returns it with the verdict (empty for TooLate), so a caller that
// reports the arrival need not render it again.
func (r *Reorder) Push(e Event) (Admission, string) {
	r.stats.Observed++
	if r.started && e.Time < r.frontier-r.maxDelay {
		r.stats.Dropped++
		return TooLate, ""
	}
	key := eventKey{e.Time, e.Atom.String()}
	if r.seen[key] {
		r.stats.Duplicates++
		return Duplicate, key.text
	}
	verdict := Admitted
	if r.started && e.Time < r.frontier {
		verdict = AdmittedLate
		r.stats.Late++
	}
	if !r.started || e.Time > r.frontier {
		r.frontier = e.Time
		r.started = true
	}
	r.seen[key] = true
	r.insert(e, key.text)
	r.stats.Accepted++
	return verdict, key.text
}

// insert places e, whose atom renders as text, into the buffer, keeping it
// sorted by (time, atom text) with arrival order as the final tie-break —
// the same canonical order Stream.Sort produces.
func (r *Reorder) insert(e Event, text string) {
	i := sort.Search(len(r.buf), func(i int) bool {
		if r.buf[i].Time != e.Time {
			return r.buf[i].Time > e.Time
		}
		return r.text[i] > text
	})
	r.buf = slices.Insert(r.buf, i, e)
	r.text = slices.Insert(r.text, i, text)
	if len(r.buf) > r.highWater {
		r.highWater = len(r.buf)
	}
}

// Buffered returns the admitted, not-yet-dropped events in canonical order.
// The returned slice is the internal buffer: callers must not modify it and
// must treat it as invalidated by the next Push, Release or Drop.
func (r *Reorder) Buffered() Stream { return r.buf }

// Text returns the rendered atom of Buffered()[i], as rendered when the
// event was admitted.
func (r *Reorder) Text(i int) string { return r.text[i] }

// Release pops and returns the buffered prefix with Time < upto, in
// canonical order — the settled part of the stream for an in-order
// consumer that releases up to the watermark.
func (r *Reorder) Release(upto int64) Stream {
	n := r.before(upto)
	if n == 0 {
		return nil
	}
	out := slices.Clone(r.buf[:n])
	r.forget(n)
	return out
}

// before returns how many buffered events have Time < t.
func (r *Reorder) before(t int64) int {
	return sort.Search(len(r.buf), func(i int) bool { return r.buf[i].Time >= t })
}

// forget removes the first n buffered events and their duplicate keys,
// shifting the rest down in place.
func (r *Reorder) forget(n int) {
	for i, e := range r.buf[:n] {
		delete(r.seen, eventKey{e.Time, r.text[i]})
	}
	r.buf = slices.Delete(r.buf, 0, n)
	r.text = slices.Delete(r.text, 0, n)
}

// Drop forgets buffered events with Time < below, returning how many were
// discarded. Used by revising consumers once a horizon is final. Dropped
// events also leave the duplicate-detection set: only arrivals that would
// land at or above the horizon are deduplicated, which is exact because
// anything older is rejected as TooLate first.
func (r *Reorder) Drop(below int64) int {
	n := r.before(below)
	r.forget(n)
	return n
}

// Close drains the buffer at end of stream: it pops and returns every
// buffered event in canonical order, regardless of the watermark. When a
// stream ends before the watermark passes its final events, an in-order
// consumer that only ever calls Release(watermark) would silently lose the
// still-held tail — Close is the drain that flushes it. The buffer remains
// usable afterwards (admission state and stats are kept), so a consumer may
// keep pushing if the stream turns out not to be over after all.
func (r *Reorder) Close() Stream {
	out := make(Stream, len(r.buf))
	copy(out, r.buf)
	r.forget(len(r.buf))
	return out
}

// ReorderState is the serialisable snapshot of a reorder buffer, used by
// the engine's crash-safe checkpoints.
type ReorderState struct {
	Frontier int64
	Started  bool
	Buffered Stream
	Stats    DisorderStats
}

// State snapshots the buffer. The Buffered slice is a copy.
func (r *Reorder) State() ReorderState {
	buf := make(Stream, len(r.buf))
	copy(buf, r.buf)
	return ReorderState{Frontier: r.frontier, Started: r.started, Buffered: buf, Stats: r.stats}
}

// NewReorderFromState rebuilds a buffer from a snapshot taken by State.
func NewReorderFromState(maxDelay int64, st ReorderState) *Reorder {
	r := NewReorder(maxDelay)
	r.frontier, r.started, r.stats = st.Frontier, st.Started, st.Stats
	r.buf = make(Stream, len(st.Buffered))
	copy(r.buf, st.Buffered)
	r.text = make([]string, len(r.buf))
	for i, e := range r.buf {
		r.text[i] = e.Atom.String()
		r.seen[eventKey{e.Time, r.text[i]}] = true
	}
	return r
}
