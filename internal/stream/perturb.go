package stream

import (
	"math/rand"
	"sort"
)

// Perturb turns a time-ordered stream into a reproducible out-of-order
// arrival sequence: each event is assigned a delivery delay drawn from r in
// [0, maxDelay] and arrivals are ordered by delivery time (original position
// breaking ties). At the moment an event with time t arrives, every earlier
// arrival e' has t'+d' <= t+d, so the frontier is at most t + maxDelay and
// no event is displaced beyond the bound. With dupEvery > 0 every
// dupEvery-th arrival is re-emitted immediately after itself, an exact
// duplicate. late counts arrivals behind a later event time; dups counts the
// duplicates injected.
func Perturb(s Stream, r *rand.Rand, maxDelay int64, dupEvery int) (out Stream, late, dups int) {
	type delayed struct {
		e   Event
		due int64
		idx int
	}
	ds := make([]delayed, len(s))
	for i, e := range s {
		var d int64
		if maxDelay > 0 {
			d = r.Int63n(maxDelay + 1)
		}
		ds[i] = delayed{e: e, due: e.Time + d, idx: i}
	}
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].due != ds[j].due {
			return ds[i].due < ds[j].due
		}
		return ds[i].idx < ds[j].idx
	})

	out = make(Stream, 0, len(s))
	var frontier int64
	for i, d := range ds {
		if i > 0 && d.e.Time < frontier {
			late++
		}
		if i == 0 || d.e.Time > frontier {
			frontier = d.e.Time
		}
		out = append(out, d.e)
		if dupEvery > 0 && (i+1)%dupEvery == 0 {
			out = append(out, d.e)
			dups++
		}
	}
	return out, late, dups
}
