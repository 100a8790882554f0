// Package check automates the qualitative error assessment of the paper's
// Section 5.2: it classifies the defects of an LLM-generated event
// description into the four published categories — (1) naming divergences,
// (2) wrong fluent kind, (3) conditions over undefined activities, and
// (4) misuse of the interval operators (disjunction/conjunction/negation) —
// plus outright syntax errors.
package check

import (
	"fmt"
	"sort"
	"strings"

	"rtecgen/internal/analysis"
	"rtecgen/internal/lang"
	"rtecgen/internal/prompt"
)

// Category is one of the paper's error categories.
type Category int

const (
	// Syntax: the model output could not be parsed as RTEC rules.
	Syntax Category = iota
	// Naming: a minor divergence in the name chosen for an event, activity
	// or background-knowledge expression (category 1).
	Naming
	// FluentKind: an activity modelled with a different type of fluent than
	// the gold standard (category 2).
	FluentKind
	// Undefined: a condition over an activity that is not defined in the
	// generated event description (category 3).
	Undefined
	// Operator: misuse of interval operations, e.g. intersect_all in place
	// of union_all (category 4).
	Operator
)

func (c Category) String() string {
	switch c {
	case Syntax:
		return "syntax error"
	case Naming:
		return "naming divergence"
	case FluentKind:
		return "wrong fluent kind"
	case Undefined:
		return "undefined condition"
	case Operator:
		return "operator misuse"
	}
	return "unknown"
}

// Finding is one classified defect.
type Finding struct {
	Category Category
	Activity string // curriculum key, or "" when not attributable
	Detail   string
}

func (f Finding) String() string {
	if f.Activity == "" {
		return fmt.Sprintf("[%s] %s", f.Category, f.Detail)
	}
	return fmt.Sprintf("[%s] %s: %s", f.Category, f.Activity, f.Detail)
}

// Analyze classifies the defects of a generated event description against
// the gold standard and the domain vocabulary.
func Analyze(gen *prompt.GeneratedED, gold *lang.EventDescription, domain *prompt.Domain) []Finding {
	var out []Finding

	// Syntax errors recorded at parse time.
	for _, r := range gen.Results {
		for _, e := range r.Errors {
			out = append(out, Finding{Category: Syntax, Activity: r.Request.Key, Detail: e})
		}
	}

	// What prompts R, E and T taught: the dialect's reserved words and the
	// domain vocabulary.
	known := domain.KnownNames()
	vocab := func(name string) bool { return known[name] || lang.Reserved(name) != lang.NotReserved }

	genED := gen.ED()
	defined := map[string]bool{}
	kindOf := map[string]lang.HeadKind{}
	for _, c := range genED.Rules() {
		if _, fl := c.HeadFVP(); fl != nil {
			defined[fl.Functor] = true
			if k, ok := kindOf[fl.Functor]; !ok || k != lang.KindHoldsFor {
				kindOf[fl.Functor] = c.Kind()
			}
		}
	}
	goldKind := map[string]lang.HeadKind{}
	for _, c := range gold.Rules() {
		if _, fl := c.HeadFVP(); fl != nil {
			if k, ok := goldKind[fl.Functor]; !ok || k != lang.KindHoldsFor {
				goldKind[fl.Functor] = c.Kind()
			}
		}
	}

	for _, r := range gen.Results {
		seenNaming := map[string]bool{}
		seenUndef := map[string]bool{}
		for _, c := range r.Clauses {
			// Category 1: names mapped back by the alias table.
			for _, name := range namesInClause(c) {
				if seenNaming[name] || vocab(name) || defined[name] {
					continue
				}
				if canonical, ok := domain.Canonical(name); ok {
					seenNaming[name] = true
					out = append(out, Finding{Category: Naming, Activity: r.Request.Key,
						Detail: fmt.Sprintf("%q should be %q", name, canonical)})
				}
			}
			// Category 3: fluent references with no definition.
			for _, l := range c.Body {
				_, fl := lang.FluentRef(l.Atom)
				if fl == nil {
					continue
				}
				name := fl.Functor
				if defined[name] || vocab(name) || seenUndef[name] {
					continue
				}
				if _, isAlias := domain.Canonical(name); isAlias {
					continue // a naming problem, not an undefined activity
				}
				seenUndef[name] = true
				out = append(out, Finding{Category: Undefined, Activity: r.Request.Key,
					Detail: fmt.Sprintf("condition refers to undefined activity %q", name)})
			}
		}
		// Category 2: fluent kind differs from the gold standard.
		for _, c := range r.Clauses {
			_, fl := c.HeadFVP()
			if fl == nil {
				continue
			}
			gk, inGold := goldKind[fl.Functor]
			if !inGold {
				continue
			}
			genIsSD := kindOf[fl.Functor] == lang.KindHoldsFor
			goldIsSD := gk == lang.KindHoldsFor
			if genIsSD != goldIsSD {
				out = append(out, Finding{Category: FluentKind, Activity: r.Request.Key,
					Detail: fmt.Sprintf("%s modelled as %s but the gold standard uses %s",
						fl.Functor, kindName(genIsSD), kindName(goldIsSD))})
				break
			}
		}
		// Category 4: interval-operator multiset differs for a shared fluent.
		out = append(out, operatorFindings(r, gold)...)
	}
	return out
}

func kindName(sd bool) string {
	if sd {
		return "a statically determined fluent"
	}
	return "a simple fluent"
}

// operatorFindings compares the interval-operator usage of each holdsFor
// rule against the gold rule for the same fluent.
func operatorFindings(r prompt.ActivityResult, gold *lang.EventDescription) []Finding {
	goldOps := map[string]map[string]int{}
	for _, c := range gold.Rules() {
		if c.Kind() != lang.KindHoldsFor {
			continue
		}
		if _, fl := c.HeadFVP(); fl != nil {
			goldOps[fl.Functor] = opCounts(c)
		}
	}
	var out []Finding
	for _, c := range r.Clauses {
		if c.Kind() != lang.KindHoldsFor {
			continue
		}
		_, fl := c.HeadFVP()
		if fl == nil {
			continue
		}
		want, ok := goldOps[fl.Functor]
		if !ok {
			continue
		}
		got := opCounts(c)
		// Only flag swaps: same total construct count, different mix.
		if total(got) == total(want) && !sameCounts(got, want) {
			out = append(out, Finding{Category: Operator, Activity: r.Request.Key,
				Detail: fmt.Sprintf("%s uses %s but the gold standard uses %s",
					fl.Functor, fmtOps(got), fmtOps(want))})
		}
	}
	return out
}

func opCounts(c *lang.Clause) map[string]int {
	out := map[string]int{}
	for _, l := range c.Body {
		if lang.Reserved(l.Atom.Functor) == lang.IntervalOp {
			out[l.Atom.Functor]++
		}
	}
	return out
}

func total(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

func sameCounts(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func fmtOps(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%dx %s", m[k], k)
	}
	return strings.Join(parts, ", ")
}

// namesInClause lists the atom and functor names of a clause in source
// order (repeats included), so findings come out in the same order every run.
func namesInClause(c *lang.Clause) []string {
	var out []string
	add := func(t *lang.Term) {
		t.Walk(func(n *lang.Term) bool {
			if n.IsCallable() {
				out = append(out, n.Functor)
			}
			return true
		})
	}
	add(c.Head)
	for _, l := range c.Body {
		add(l.Atom)
	}
	return out
}

// CategoryForCode maps a static-analyzer diagnostic code (internal/analysis)
// to the paper's Section 5.2 error category. Not every analyzer finding has
// a counterpart in the published taxonomy: arity mismatches (R001),
// dependency cycles (R004), unused definitions (R005), duplicate clauses
// (R006) and unsafe variables (R007) have no category, and the second
// return is false for them.
func CategoryForCode(code string) (Category, bool) {
	switch code {
	case analysis.SyntaxCode:
		return Syntax, true
	case "R002": // undefined-reference: conditions over undefined activities
		return Undefined, true
	case "R003": // fluent-kind-conflict
		return FluentKind, true
	case "R008": // interval-operator-misuse
		return Operator, true
	case "R010": // unknown-name: misremembered vocabulary names
		return Naming, true
	}
	return 0, false
}

// FindingsFromDiagnostics converts static-analyzer diagnostics into paper
// findings, dropping the diagnostics with no published category. Unlike
// Analyze, this classification needs no gold standard; position information
// is folded into the detail text.
func FindingsFromDiagnostics(ds []analysis.Diagnostic) []Finding {
	var out []Finding
	for _, d := range ds {
		cat, ok := CategoryForCode(d.Code)
		if !ok {
			continue
		}
		detail := d.Message
		if d.Pos.IsValid() {
			detail = fmt.Sprintf("%s (at %s)", d.Message, d.Pos)
		}
		out = append(out, Finding{Category: cat, Detail: detail})
	}
	return out
}

// CountByCategory aggregates findings per category.
func CountByCategory(fs []Finding) map[Category]int {
	out := map[Category]int{}
	for _, f := range fs {
		out[f.Category]++
	}
	return out
}
