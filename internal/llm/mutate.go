// Package llm provides the language-model substrate of the reproduction.
// The paper queries GPT-4, GPT-4o, o1, Llama-3, Mistral and Gemma-2 through
// the OpenAI and Groq APIs; this package replaces them with deterministic
// simulated models implementing the same chat interface. Each simulated
// model consumes the actual prompt pipeline (it only uses vocabulary taught
// by prompts E and T and detects the prompting scheme from prompt F), and
// produces activity definitions by perturbing its internal notion of the
// intended formalisation with a model-specific error profile calibrated to
// the paper's qualitative error analysis (Section 5.2). See DESIGN.md for
// why this substitution preserves the measured behaviour.
package llm

import (
	"math/rand"
	"sort"
	"strings"

	"rtecgen/internal/lang"
	"rtecgen/internal/parser"
)

// Perturbation is one of the edits by which a plausible definition of an
// activity goes wrong: the error operators the simulated models' profiles are
// built from, and the unit in which anything else (a fuzz corpus, a test
// oracle, a metric-validity study) derives known-defective definitions from a
// correct one.
type Perturbation struct {
	Name string
	// Apply edits the rules of one activity, whose top-level fluent is
	// primary: rules are edited in place (hand it copies), a dropped rule
	// leaves the returned list shorter, and rng decides wherever the operator
	// has a choice. changed reports whether any edit was made.
	Apply func(rng *rand.Rand, clauses []*lang.Clause, primary string) (out []*lang.Clause, changed bool)
}

// Perturbations returns the generic error operators at the rates r (the
// probability per site — a rule, a reference, a construct — so 1 edits every
// site and 0 none), in the order a simulated model applies them.
func Perturbations(r Rates) []Perturbation {
	return []Perturbation{
		{"dropGapTermination", func(rng *rand.Rand, cs []*lang.Clause, _ string) ([]*lang.Clause, bool) {
			changed := false
			for rng.Float64() < r.Drop {
				var dropped bool
				if cs, dropped = dropGapTermination(cs); !dropped {
					break
				}
				changed = true
			}
			return cs, changed
		}},
		{"dropConditions", func(rng *rand.Rand, cs []*lang.Clause, _ string) ([]*lang.Clause, bool) {
			return cs, dropConditions(rng, cs, r.Drop)
		}},
		{"dropSDConditions", func(rng *rand.Rand, cs []*lang.Clause, _ string) ([]*lang.Clause, bool) {
			return cs, dropSDConditions(rng, cs, r.Drop)
		}},
		{"addExtraConditions", func(rng *rand.Rand, cs []*lang.Clause, primary string) ([]*lang.Clause, bool) {
			return cs, addExtraConditions(rng, cs, primary, r.Extra)
		}},
		{"undefineReferences", func(rng *rand.Rand, cs []*lang.Clause, _ string) ([]*lang.Clause, bool) {
			return cs, undefineReferences(rng, cs, definedFluents(cs), r.Undefined)
		}},
		{"swapOps", func(rng *rand.Rand, cs []*lang.Clause, _ string) ([]*lang.Clause, bool) {
			return cs, swapOpsAll(rng, cs, r.OpSwap)
		}},
	}
}

// SwapIntervalOp and AddRedundantIntersect are the two operators a profile
// aims at one activity's top-level definition (Profile.Special): no rate, no
// draw.
func SwapIntervalOp() Perturbation {
	return Perturbation{"swapIntervalOp", func(_ *rand.Rand, cs []*lang.Clause, primary string) ([]*lang.Clause, bool) {
		return cs, swapIntervalOp(cs, primary)
	}}
}

func AddRedundantIntersect() Perturbation {
	return Perturbation{"addRedundantIntersect", func(_ *rand.Rand, cs []*lang.Clause, primary string) ([]*lang.Clause, bool) {
		return cs, addRedundantIntersect(cs, primary)
	}}
}

// Rename returns the naming error: every functor or atom from becomes to —
// everywhere, or with bodiesOnly in rule bodies alone, so that a definition
// keeps its name and the references to it break.
func Rename(from, to string, bodiesOnly bool) Perturbation {
	return Perturbation{"rename", func(_ *rand.Rand, cs []*lang.Clause, _ string) ([]*lang.Clause, bool) {
		if bodiesOnly {
			return cs, renameInBodies(cs, from, to)
		}
		return cs, renameName(cs, from, to)
	}}
}

// Perturbed returns the rules of every activity as the knowledge intends
// them, with p applied to a copy of each activity's rules from its own source
// seeded by (seed, operator, activity): a known-defective variant of the
// domain's gold rules.
func (k *Knowledge) Perturbed(p Perturbation, seed int64) []*lang.Clause {
	var out []*lang.Clause
	for _, act := range k.Activities {
		rng := rand.New(rand.NewSource(seed ^ fnvSeed(p.Name, act.Key)))
		cs, _ := p.Apply(rng, cloneClauses(act.Clauses), act.Primary)
		out = append(out, cs...)
	}
	return out
}

// definedFluents returns the functors of the fluents the rules define.
func definedFluents(clauses []*lang.Clause) map[string]bool {
	own := map[string]bool{}
	for _, c := range clauses {
		if _, fl := c.HeadFVP(); fl != nil {
			own[fl.Functor] = true
		}
	}
	return own
}

// renameName rewrites every functor/atom occurrence of from to to, in heads
// and bodies alike, and reports whether there was one.
func renameName(clauses []*lang.Clause, from, to string) bool {
	changed := renameInBodies(clauses, from, to)
	for _, c := range clauses {
		if head := renameTerm(c.Head, from, to); head != c.Head {
			c.Head, changed = head, true
		}
	}
	return changed
}

// renameInBodies rewrites occurrences only in rule bodies, leaving heads
// intact (used for "undefined condition" errors: the reference is broken,
// not the definition).
func renameInBodies(clauses []*lang.Clause, from, to string) bool {
	changed := false
	for _, c := range clauses {
		for i := range c.Body {
			if atom := renameTerm(c.Body[i].Atom, from, to); atom != c.Body[i].Atom {
				c.Body[i].Atom, changed = atom, true
			}
		}
	}
	return changed
}

func renameTerm(t *lang.Term, from, to string) *lang.Term {
	switch t.Kind {
	case lang.Atom:
		if t.Functor == from {
			return lang.NewAtom(to)
		}
		return t
	case lang.Compound, lang.List:
		args := make([]*lang.Term, len(t.Args))
		changed := false
		for i, a := range t.Args {
			args[i] = renameTerm(a, from, to)
			if args[i] != a {
				changed = true
			}
		}
		name := t.Functor
		if t.Kind == lang.Compound && name == from {
			name = to
			changed = true
		}
		if !changed {
			return t
		}
		n := *t
		n.Functor = name
		n.Args = args
		return &n
	default:
		return t
	}
}

// namesIn collects the atom/functor names occurring in the clauses.
func namesIn(clauses []*lang.Clause) map[string]bool {
	out := map[string]bool{}
	visit := func(t *lang.Term) {
		t.Walk(func(n *lang.Term) bool {
			if n.Kind == lang.Atom || n.Kind == lang.Compound {
				out[n.Functor] = true
			}
			return true
		})
	}
	for _, c := range clauses {
		visit(c.Head)
		for _, l := range c.Body {
			visit(l.Atom)
		}
	}
	return out
}

// dropGapTermination removes one terminatedAt rule whose body mentions
// gap_start (the most commonly forgotten condition), or any surplus
// terminatedAt rule. Reports whether anything was dropped.
func dropGapTermination(clauses []*lang.Clause) ([]*lang.Clause, bool) {
	terms := 0
	for _, c := range clauses {
		if c.Kind() == lang.KindTerminatedAt {
			terms++
		}
	}
	if terms < 2 {
		return clauses, false
	}
	// Prefer a gap_start termination.
	for pass := 0; pass < 2; pass++ {
		for i, c := range clauses {
			if c.Kind() != lang.KindTerminatedAt {
				continue
			}
			hasGap := false
			for _, l := range c.Body {
				l.Atom.Walk(func(n *lang.Term) bool {
					if n.Functor == "gap_start" {
						hasGap = true
					}
					return true
				})
			}
			if pass == 0 && !hasGap {
				continue
			}
			return append(append([]*lang.Clause{}, clauses[:i]...), clauses[i+1:]...), true
		}
	}
	return clauses, false
}

// undefineReferences breaks fluent references in rule bodies: each holdsAt
// or holdsFor condition referring to a fluent defined outside this activity
// is, with probability p, renamed to a hallucinated name, producing the
// paper's third error category (conditions with undefined activities).
// ownFluents holds the functors the activity itself defines.
func undefineReferences(rng *rand.Rand, clauses []*lang.Clause, ownFluents map[string]bool, p float64) (changed bool) {
	if p <= 0 {
		return false
	}
	var candidates []string
	seen := map[string]bool{}
	for _, c := range clauses {
		for _, l := range c.Body {
			_, fl := lang.FluentRef(l.Atom)
			if fl == nil || ownFluents[fl.Functor] || seen[fl.Functor] {
				continue
			}
			name := fl.Functor
			seen[name] = true
			candidates = append(candidates, name)
		}
	}
	sort.Strings(candidates)
	for _, from := range candidates {
		if rng.Float64() < p {
			renameInBodies(clauses, from, from+"State")
			changed = true
		}
	}
	return changed
}

// swapIntervalOp flips one union_all/intersect_all construct in the primary
// fluent's holdsFor rule (the paper's fourth error category: confusing
// disjunction with conjunction).
func swapIntervalOp(clauses []*lang.Clause, primary string) bool {
	for _, c := range clauses {
		_, fl := c.HeadFVP()
		if c.Kind() != lang.KindHoldsFor || fl == nil || fl.Functor != primary {
			continue
		}
		for i, l := range c.Body {
			switch l.Atom.Functor {
			case "union_all":
				c.Body[i].Atom = lang.NewCompound("intersect_all", l.Atom.Args...)
				return true
			case "intersect_all":
				c.Body[i].Atom = lang.NewCompound("union_all", l.Atom.Args...)
				return true
			}
		}
	}
	return false
}

// addRedundantIntersect inserts a redundant holdsFor(underWay(V)=true)
// condition into the primary holdsFor rule and extends its final
// intersect_all list, modelling "most conditions matched plus one redundant
// condition" (the paper's trawling analysis).
func addRedundantIntersect(clauses []*lang.Clause, primary string) bool {
	for _, c := range clauses {
		_, fl := c.HeadFVP()
		if c.Kind() != lang.KindHoldsFor || fl == nil || fl.Functor != primary {
			continue
		}
		// Adding underWay to a fluent underWay builds on would create a
		// cyclic hierarchy; a cycle is not the error being modelled here.
		if fl.Functor == "underWay" || fl.Functor == "movingSpeed" {
			continue
		}
		for i, l := range c.Body {
			op := l.Atom.Functor
			if (op != "intersect_all" && op != "union_all") || len(l.Atom.Args) != 2 || l.Atom.Args[0].Kind != lang.List {
				continue
			}
			vessel := fl.Args[0]
			extra := lang.Pos(lang.NewCompound("holdsFor",
				lang.FVP(lang.NewCompound("underWay", vessel), lang.NewAtom("true")),
				lang.NewVar("Iuw")))
			newList := lang.NewList(append(append([]*lang.Term{}, l.Atom.Args[0].Args...), lang.NewVar("Iuw"))...)
			c.Body[i].Atom = lang.NewCompound(op, newList, l.Atom.Args[1])
			c.Body = append(c.Body[:i], append([]lang.Literal{extra, c.Body[i]}, c.Body[i+1:]...)...)
			return true
		}
	}
	return false
}

// dropConditions removes, with probability p per rule, one non-anchor
// condition from each simple-fluent rule that has at least two conditions —
// the "missing condition" error that makes a definition overly general.
func dropConditions(rng *rand.Rand, clauses []*lang.Clause, p float64) (changed bool) {
	if p <= 0 {
		return false
	}
	for _, c := range clauses {
		k := c.Kind()
		if k != lang.KindInitiatedAt && k != lang.KindTerminatedAt {
			continue
		}
		if len(c.Body) < 2 || rng.Float64() >= p {
			continue
		}
		// Never drop the anchoring happensAt condition.
		var droppable []int
		anchor := c.Anchor()
		for i := range c.Body {
			if i != anchor {
				droppable = append(droppable, i)
			}
		}
		if len(droppable) == 0 {
			continue
		}
		i := droppable[rng.Intn(len(droppable))]
		c.Body = append(c.Body[:i], c.Body[i+1:]...)
		changed = true
	}
	return changed
}

// addExtraConditions appends, with probability p per rule, a redundant
// holdsAt(underWay(V)=true, T) condition to initiatedAt rules (the
// "redundant condition" error of the paper's trawling analysis, applied
// generically). Fluents that underWay itself builds on are skipped so the
// hierarchy stays acyclic.
func addExtraConditions(rng *rand.Rand, clauses []*lang.Clause, primary string, p float64) (changed bool) {
	if p <= 0 {
		return false
	}
	for _, c := range clauses {
		if c.Kind() != lang.KindInitiatedAt || rng.Float64() >= p {
			continue
		}
		_, fl := c.HeadFVP()
		if fl == nil || fl.Functor == "movingSpeed" || fl.Functor == "underWay" {
			continue
		}
		if len(fl.Args) == 0 || fl.Args[0].Kind != lang.Var || c.Head.Args[1].Kind != lang.Var {
			continue
		}
		extra := lang.Pos(lang.NewCompound("holdsAt",
			lang.FVP(lang.NewCompound("underWay", fl.Args[0]), lang.NewAtom("true")),
			c.Head.Args[1]))
		c.Body = append(c.Body, extra)
		changed = true
	}
	// Statically determined primaries get the redundant-intersect variant.
	if rng.Float64() < p && addRedundantIntersect(clauses, primary) {
		changed = true
	}
	return changed
}

// dropSDConditions removes, with probability p per holdsFor rule, one
// holdsFor condition together with its interval variable's occurrences in
// the construct lists of the rule — a missing conjunct/disjunct in a
// statically determined definition. Conditions whose removal would leave a
// construct list empty are not candidates.
func dropSDConditions(rng *rand.Rand, clauses []*lang.Clause, p float64) (changed bool) {
	if p <= 0 {
		return false
	}
	for _, c := range clauses {
		if c.Kind() != lang.KindHoldsFor || rng.Float64() >= p {
			continue
		}
		// Count interval-list lengths per construct to know what is safe to
		// remove.
		var candidates []int
		for i, l := range c.Body {
			if l.Atom.Functor != "holdsFor" || len(l.Atom.Args) != 2 || l.Atom.Args[1].Kind != lang.Var {
				continue
			}
			iv := l.Atom.Args[1].Functor
			safe := true
			for _, l2 := range c.Body {
				for ai, arg := range l2.Atom.Args {
					if arg.Kind != lang.List || !listContainsVar(arg, iv) {
						continue
					}
					// Emptying a union/intersect input list would void the
					// construct; an emptied subtraction list of a relative
					// complement is fine (nothing is subtracted).
					subtraction := l2.Atom.Functor == "relative_complement_all" && ai == 1
					if len(arg.Args) <= 1 && !subtraction {
						safe = false
					}
				}
				// Never break a relative_complement base.
				if l2.Atom.Functor == "relative_complement_all" && len(l2.Atom.Args) == 3 &&
					l2.Atom.Args[0].Kind == lang.Var && l2.Atom.Args[0].Functor == iv {
					safe = false
				}
			}
			if safe {
				candidates = append(candidates, i)
			}
		}
		if len(candidates) == 0 {
			continue
		}
		idx := candidates[rng.Intn(len(candidates))]
		iv := c.Body[idx].Atom.Args[1].Functor
		c.Body = append(c.Body[:idx], c.Body[idx+1:]...)
		changed = true
		for j, l2 := range c.Body {
			if len(l2.Atom.Args) == 0 {
				continue
			}
			args := make([]*lang.Term, len(l2.Atom.Args))
			copy(args, l2.Atom.Args)
			shortened := false
			for k, arg := range args {
				if arg.Kind == lang.List && listContainsVar(arg, iv) {
					var kept []*lang.Term
					for _, el := range arg.Args {
						if !(el.Kind == lang.Var && el.Functor == iv) {
							kept = append(kept, el)
						}
					}
					args[k] = lang.NewList(kept...)
					shortened = true
				}
			}
			if shortened {
				c.Body[j].Atom = lang.NewCompound(l2.Atom.Functor, args...)
			}
		}
	}
	return changed
}

func listContainsVar(list *lang.Term, name string) bool {
	for _, el := range list.Args {
		if el.Kind == lang.Var && el.Functor == name {
			return true
		}
	}
	return false
}

// swapOpsAll flips, with probability p per construct, every
// union_all/intersect_all in every holdsFor rule.
func swapOpsAll(rng *rand.Rand, clauses []*lang.Clause, p float64) (changed bool) {
	if p <= 0 {
		return false
	}
	for _, c := range clauses {
		if c.Kind() != lang.KindHoldsFor {
			continue
		}
		for i, l := range c.Body {
			switch l.Atom.Functor {
			case "union_all":
				if rng.Float64() < p {
					c.Body[i].Atom = lang.NewCompound("intersect_all", l.Atom.Args...)
					changed = true
				}
			case "intersect_all":
				if rng.Float64() < p {
					c.Body[i].Atom = lang.NewCompound("union_all", l.Atom.Args...)
					changed = true
				}
			}
		}
	}
	return changed
}

// replaceFluentRules removes every rule whose head fluent is in names and
// appends the replacement clauses.
func replaceFluentRules(clauses []*lang.Clause, names map[string]bool, replacementSrc string) []*lang.Clause {
	var out []*lang.Clause
	for _, c := range clauses {
		if _, fl := c.HeadFVP(); fl != nil && names[fl.Functor] {
			continue
		}
		out = append(out, c)
	}
	repl := parser.MustParseEventDescription(replacementSrc)
	return append(out, repl.Clauses...)
}

// corruptSyntax introduces a genuine syntax error into rendered rule text:
// the final closing parenthesis of the first rule is dropped.
func corruptSyntax(text string) string {
	idx := strings.Index(text, ").")
	if idx < 0 {
		return text + "("
	}
	return text[:idx] + "." + text[idx+2:]
}

// cloneClauses deep-copies a rule set.
func cloneClauses(in []*lang.Clause) []*lang.Clause {
	out := make([]*lang.Clause, len(in))
	for i, c := range in {
		out[i] = c.Clone()
	}
	return out
}

// sortStrings sorts in place (tiny wrapper to keep call sites terse).
func sortStrings(s []string) { sort.Strings(s) }

// fnvSeed derives a deterministic RNG seed from the given parts.
func fnvSeed(parts ...string) int64 {
	var h uint64 = 14695981039346656037
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= 1099511628211
		}
		h ^= '|'
		h *= 1099511628211
	}
	return int64(h & 0x7fffffffffffffff)
}
