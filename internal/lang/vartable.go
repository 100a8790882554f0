package lang

// VarTable numbers variables into slots, by name, in first-occurrence order.
// Numbered copies of terms are what a Bindings store unifies: a Var term
// carries its slot in Int (slot+1; 0 means unnumbered), keeps its name, and
// so renders, compares and hashes exactly like the variable it was copied
// from. Terms numbered through one table share one slot space.
type VarTable struct {
	slots map[string]int64
}

// Len returns the number of slots assigned so far.
func (vt *VarTable) Len() int { return len(vt.slots) }

// Number returns a copy of t whose variables carry their slots. Ground
// sub-terms are shared, not copied.
func (vt *VarTable) Number(t *Term) *Term { return mapVars(t, vt.numbered) }

// NumberClause returns a copy of the clause numbered through the table,
// head first.
func (vt *VarTable) NumberClause(c *Clause) *Clause { return c.mapVars(vt.numbered) }

// NumberApart returns a copy of the clause whose variables are renamed with
// the given suffix and numbered through the table, head first, so that a
// rule's variables cannot be mistaken for those of another clause evaluated
// with it (or of a query). The engine renames each rule once, when it
// compiles it; the suffixed names are the ones its warnings and non-ground
// results print. A renamed variable has no position, so its occurrences in
// the copy are one shared term.
func (vt *VarTable) NumberApart(c *Clause, suffix string) *Clause {
	renamed := map[string]*Term{}
	return c.mapVars(func(v *Term) *Term {
		r, ok := renamed[v.Functor]
		if !ok {
			r = vt.numbered(&Term{Kind: Var, Functor: v.Functor + suffix})
			renamed[v.Functor] = r
		}
		return r
	})
}

// numbered returns variable v with its slot, assigning the next one to a
// name the table has not seen.
func (vt *VarTable) numbered(v *Term) *Term {
	slot, ok := vt.slots[v.Functor]
	if !ok {
		if vt.slots == nil {
			vt.slots = map[string]int64{}
		}
		slot = int64(len(vt.slots)) + 1
		vt.slots[v.Functor] = slot
	}
	return &Term{Kind: Var, Functor: v.Functor, Int: slot, Pos: v.Pos}
}

// Unnumbered returns t with its variables' slots removed: the term as it
// would parse back from its rendering. A term leaving the slot space it was
// numbered in (an emitted non-ground FVP, an interned pattern) is unnumbered
// first; a consumer numbers it afresh. Ground terms are returned as-is.
func Unnumbered(t *Term) *Term {
	return mapVars(t, func(v *Term) *Term {
		if v.Int == 0 {
			return v
		}
		return &Term{Kind: Var, Functor: v.Functor, Pos: v.Pos}
	})
}
