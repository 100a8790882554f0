package lang

import (
	"math"
	"strconv"
	"sync"
)

// This file implements structural term interning: a concurrency-safe pool
// mapping structurally-equal terms to stable integer IDs. The RTEC engine
// keys its per-window caches by InternID instead of by rendered term string,
// so the canonical string of a ground fluent-value pair is computed once per
// engine lifetime instead of once per cache access.

// PredKey identifies a predicate by functor and arity without the "f/n"
// string concatenation of Indicator. It is a comparable value type, suitable
// as a map key on hot paths.
type PredKey struct {
	Functor string
	Arity   int
}

// String renders the key in indicator notation ("functor/arity").
func (k PredKey) String() string { return k.Functor + "/" + strconv.Itoa(k.Arity) }

// Pred returns the predicate key of a callable term. The zero PredKey is
// returned for non-callable terms (its Functor is empty, which no callable
// term can carry).
func (t *Term) Pred() PredKey {
	if !t.IsCallable() {
		return PredKey{}
	}
	return PredKey{Functor: t.Functor, Arity: len(t.Args)}
}

// Hash returns a structural FNV-1a hash of the term t denotes under b (nil
// for a term taken as written), without building the resolved term:
// structurally equal terms (in the sense of Equal) hash identically.
func Hash(t *Term, b *Bindings) uint64 {
	return hashTerm(fnvOffset, t, b)
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func hashByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = hashByte(h, s[i])
	}
	return hashByte(h, 0xff) // length delimiter
}

func hashUint64(h uint64, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = hashByte(h, byte(v>>(8*i)))
	}
	return h
}

func hashTerm(h uint64, t *Term, b *Bindings) uint64 {
	t = b.Walk(t)
	h = hashByte(h, byte(t.Kind))
	switch t.Kind {
	case Var, Atom:
		h = hashString(h, t.Functor)
	case Int:
		h = hashUint64(h, uint64(t.Int))
	case Float:
		f := t.Float
		if f == 0 {
			f = 0 // -0.0 is Equal to 0.0, so it must hash alike
		}
		h = hashUint64(h, math.Float64bits(f))
	case Str:
		h = hashString(h, t.Text)
	case Compound:
		h = hashString(h, t.Functor)
		fallthrough
	case List:
		h = hashByte(h, byte(len(t.Args)))
		for _, a := range t.Args {
			h = hashTerm(h, a, b)
		}
	}
	return h
}

// InternID is the stable identifier of an interned term within one Interner.
// IDs are dense, starting at 0, in first-interning order.
type InternID int32

// Interner maps structurally-equal terms to stable IDs and caches each
// term's canonical rendering. Its methods take the term together with the
// bindings to read it through (nil for a term taken as written) and never
// build the resolved term except to store it. A stored term carries no
// variable slots, so a non-ground term handed back by TermOf cannot be
// mistaken for one numbered into the caller's binding store. It is safe for
// concurrent use: lookups take a read lock, insertions a write lock. Within
// the RTEC engine, insertions only happen on the sequential merge path, so
// parallel rule evaluation contends only on the read lock.
type Interner struct {
	mu      sync.RWMutex
	buckets map[uint64][]InternID
	terms   []*Term
	strs    []string
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{buckets: map[uint64][]InternID{}}
}

// Lookup returns the ID of a previously interned term structurally equal to
// t under b, without interning it on a miss.
func (in *Interner) Lookup(t *Term, b *Bindings) (InternID, bool) {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.find(Hash(t, b), t, b)
}

// find scans hash bucket h for the term t denotes under b. The caller holds
// the lock.
func (in *Interner) find(h uint64, t *Term, b *Bindings) (InternID, bool) {
	for _, id := range in.buckets[h] {
		if b.Equal(t, in.terms[id]) {
			return id, true
		}
	}
	return 0, false
}

// ID interns the term t denotes under b (if new) and returns its stable ID.
// The resolved term and its canonical rendering are built once, at first
// interning.
func (in *Interner) ID(t *Term, b *Bindings) InternID {
	h := Hash(t, b)
	in.mu.RLock()
	id, ok := in.find(h, t, b)
	in.mu.RUnlock()
	if ok {
		return id
	}
	t = Unnumbered(b.Resolve(t))
	in.mu.Lock()
	defer in.mu.Unlock()
	// Re-check: another goroutine may have interned t between the locks.
	if id, ok = in.find(h, t, nil); ok {
		return id
	}
	id = InternID(len(in.terms))
	in.buckets[h] = append(in.buckets[h], id)
	in.terms = append(in.terms, t)
	in.strs = append(in.strs, t.String())
	return id
}

// TermOf returns the interned term of an ID.
func (in *Interner) TermOf(id InternID) *Term {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.terms[id]
}

// StringOf returns the cached canonical rendering of an interned term.
func (in *Interner) StringOf(id InternID) string {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.strs[id]
}

// Len returns the number of interned terms.
func (in *Interner) Len() int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return len(in.terms)
}
