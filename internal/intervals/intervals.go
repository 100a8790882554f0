// Package intervals implements RTEC's maximal-interval algebra: lists of
// disjoint, sorted intervals over an integer time-line, with the three
// interval-manipulation constructs of the language (union_all, intersect_all
// and relative_complement_all) and the construction of maximal intervals
// from initiation and termination time-points.
//
// Intervals are half-open [Start, End). RTEC's inertia semantics — a fluent
// initiated at Ts holds from Ts+1 and a fluent terminated at Te last holds at
// Te — therefore map an initiation/termination pair (Ts, Te) to the interval
// [Ts+1, Te+1). An interval that has not been terminated yet ("until further
// notice") has End = Inf.
package intervals

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Inf is the sentinel end-point of an open-ended interval.
const Inf int64 = math.MaxInt64

// Interval is a half-open span [Start, End) of integer time-points.
type Interval struct {
	Start, End int64
}

// Empty reports whether the interval contains no time-points.
func (iv Interval) Empty() bool { return iv.End <= iv.Start }

// Contains reports whether time-point t falls within the interval.
func (iv Interval) Contains(t int64) bool { return t >= iv.Start && t < iv.End }

// Duration returns the number of time-points in the interval; open-ended
// intervals report Inf.
func (iv Interval) Duration() int64 {
	if iv.End == Inf {
		return Inf
	}
	return iv.End - iv.Start
}

// String renders the interval in RTEC's (since, until] display convention,
// e.g. "(5,9]" for [6,10), and "(5,inf)" for an open interval.
func (iv Interval) String() string {
	if iv.End == Inf {
		return fmt.Sprintf("(%d,inf)", iv.Start-1)
	}
	return fmt.Sprintf("(%d,%d]", iv.Start-1, iv.End-1)
}

// List is a normalised list of maximal intervals: sorted by start, pairwise
// disjoint and non-adjacent.
type List []Interval

// String renders the list as e.g. "[(5,9], (12,20]]".
func (l List) String() string {
	parts := make([]string, len(l))
	for i, iv := range l {
		parts[i] = iv.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// Normalize sorts ivs, drops empty intervals and merges overlapping or
// adjacent ones, returning a fresh normalised List.
func Normalize(ivs []Interval) List {
	work := make([]Interval, 0, len(ivs))
	for _, iv := range ivs {
		if !iv.Empty() {
			work = append(work, iv)
		}
	}
	slices.SortFunc(work, compareIntervals)
	var out List
	for _, iv := range work {
		if n := len(out); n > 0 && iv.Start <= out[n-1].End {
			if iv.End > out[n-1].End {
				out[n-1].End = iv.End
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// IsNormalized reports whether l is sorted, non-empty-element and
// non-adjacent — the invariant all exported operations preserve.
func (l List) IsNormalized() bool {
	for i, iv := range l {
		if iv.Empty() {
			return false
		}
		if i > 0 && iv.Start <= l[i-1].End {
			return false
		}
	}
	return true
}

// Contains reports whether any interval of l contains t.
func (l List) Contains(t int64) bool {
	i := sort.Search(len(l), func(i int) bool { return l[i].End > t })
	return i < len(l) && l[i].Contains(t)
}

// Duration returns the total number of time-points covered by l; Inf if any
// interval is open-ended.
func (l List) Duration() int64 {
	var total int64
	for _, iv := range l {
		if iv.End == Inf {
			return Inf
		}
		total += iv.Duration()
	}
	return total
}

// Clone returns a copy of l.
func (l List) Clone() List {
	out := make(List, len(l))
	copy(out, l)
	return out
}

// Equal reports element-wise equality.
func (l List) Equal(o List) bool {
	if len(l) != len(o) {
		return false
	}
	for i := range l {
		if l[i] != o[i] {
			return false
		}
	}
	return true
}

// compareIntervals orders intervals by start, then end.
func compareIntervals(a, b Interval) int {
	if c := cmp.Compare(a.Start, b.Start); c != 0 {
		return c
	}
	return cmp.Compare(a.End, b.End)
}

// normalizeInPlace sorts all, drops empty intervals and merges overlapping
// or adjacent ones in place, returning the shortened slice. It is the
// allocation-free core of Normalize for callers that own the buffer.
func normalizeInPlace(all []Interval) []Interval {
	slices.SortFunc(all, compareIntervals)
	w := 0
	for _, iv := range all {
		if iv.Empty() {
			continue
		}
		if w > 0 && iv.Start <= all[w-1].End {
			if iv.End > all[w-1].End {
				all[w-1].End = iv.End
			}
			continue
		}
		all[w] = iv
		w++
	}
	return all[:w]
}

// Union returns the union of the given lists (union_all).
func Union(lists ...List) List {
	nonEmpty := 0
	var single List
	for _, l := range lists {
		if len(l) > 0 {
			nonEmpty++
			single = l
		}
	}
	switch nonEmpty {
	case 0:
		return nil
	case 1:
		if single.IsNormalized() {
			return single.Clone()
		}
		return Normalize(single)
	}
	sp := getIvScratch()
	all := (*sp)[:0]
	for _, l := range lists {
		all = append(all, l...)
	}
	all = normalizeInPlace(all)
	var out List
	if len(all) > 0 {
		out = make(List, len(all))
		copy(out, all)
	}
	*sp = all
	putIvScratch(sp)
	return out
}

// Intersect returns the intersection of the given lists (intersect_all).
// With no arguments it returns nil; a single list is returned as a copy.
func Intersect(lists ...List) List {
	if len(lists) == 0 {
		return nil
	}
	out := lists[0].Clone()
	for _, l := range lists[1:] {
		out = intersect2(out, l)
		if len(out) == 0 {
			return out
		}
	}
	return out
}

func intersect2(a, b List) List {
	var out List
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo := max64(a[i].Start, b[j].Start)
		hi := min64(a[i].End, b[j].End)
		if lo < hi {
			out = append(out, Interval{lo, hi})
		}
		if a[i].End < b[j].End {
			i++
		} else {
			j++
		}
	}
	return out
}

// RelativeComplement returns base minus the union of subtract
// (relative_complement_all).
func RelativeComplement(base List, subtract ...List) List {
	// The subtrahend union is transient: build it in a pooled scratch
	// buffer instead of allocating a fresh List per call. A single
	// normalised subtrahend is used directly.
	var sub []Interval
	var sp *[]Interval
	nonEmpty := 0
	var single List
	for _, l := range subtract {
		if len(l) > 0 {
			nonEmpty++
			single = l
		}
	}
	switch {
	case nonEmpty == 1 && single.IsNormalized():
		sub = single
	case nonEmpty > 0:
		sp = getIvScratch()
		all := (*sp)[:0]
		for _, l := range subtract {
			all = append(all, l...)
		}
		sub = normalizeInPlace(all)
		defer func() {
			*sp = sub
			putIvScratch(sp)
		}()
	}
	var out List
	j := 0
	for _, iv := range base {
		cur := iv.Start
		for j < len(sub) && sub[j].End <= cur {
			j++
		}
		k := j
		for k < len(sub) && sub[k].Start < iv.End {
			if sub[k].Start > cur {
				out = append(out, Interval{cur, sub[k].Start})
			}
			if sub[k].End > cur {
				cur = sub[k].End
			}
			k++
		}
		if cur < iv.End {
			out = append(out, Interval{cur, iv.End})
		}
	}
	return out
}

// FromPoints computes the maximal intervals of a simple FVP from its
// initiation and termination time-points, per RTEC semantics: each
// initiation Ts is matched with the first termination Te >= Ts, intermediate
// initiations are absorbed, and the resulting interval is [Ts+1, Te+1)
// (empty when Te == Ts). An unmatched initiation yields an open interval.
// The inputs need not be sorted or duplicate-free.
func FromPoints(initiations, terminations []int64) List {
	if len(initiations) == 0 {
		return nil
	}
	ip, tp := getI64Scratch(), getI64Scratch()
	ini := append((*ip)[:0], initiations...)
	ter := append((*tp)[:0], terminations...)
	slices.Sort(ini)
	slices.Sort(ter)
	sp := getIvScratch()
	work := (*sp)[:0]
	j := 0
	for i := 0; i < len(ini); {
		ts := ini[i]
		for j < len(ter) && ter[j] < ts {
			j++
		}
		if j == len(ter) {
			work = append(work, Interval{ts + 1, Inf})
			break
		}
		te := ter[j]
		if te > ts { // te == ts produces an empty interval: skip
			work = append(work, Interval{ts + 1, te + 1})
		}
		// Absorb every initiation at or before the matched termination.
		for i < len(ini) && ini[i] <= te {
			i++
		}
	}
	work = normalizeInPlace(work)
	var out List
	if len(work) > 0 {
		out = make(List, len(work))
		copy(out, work)
	}
	*ip, *tp, *sp = ini, ter, work
	putI64Scratch(ip)
	putI64Scratch(tp)
	putIvScratch(sp)
	return out
}

// Clip restricts l to the window [start, end), turning open-ended intervals
// into intervals ending at the window end.
func Clip(l List, start, end int64) List {
	var out List
	for _, iv := range l {
		lo := max64(iv.Start, start)
		hi := min64(iv.End, end)
		if lo < hi {
			out = append(out, Interval{lo, hi})
		}
	}
	return out
}

// OverlapDuration returns the total duration of the intersection of a and b,
// clipped to [start, end) first so open intervals contribute finitely.
func OverlapDuration(a, b List, start, end int64) int64 {
	return Intersect(Clip(a, start, end), Clip(b, start, end)).Duration()
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
