package analysis

import (
	"fmt"
	"sort"
	"strings"

	"rtecgen/internal/lang"
)

// ---------------------------------------------------------------- R001

// runArityMismatch reports symbols used in predicate position with
// conflicting arities. The first-seen arity is taken as intended; each
// later distinct arity yields one diagnostic.
func runArityMismatch(ctx *context) []Diagnostic {
	byName := map[string][]arityUse{}
	var names []string
	for _, u := range ctx.arityUses {
		if _, ok := byName[u.name]; !ok {
			names = append(names, u.name)
		}
		byName[u.name] = append(byName[u.name], u)
	}
	var out []Diagnostic
	for _, name := range names {
		uses := byName[name]
		first := uses[0]
		reported := map[int]bool{first.arity: true}
		for _, u := range uses[1:] {
			if reported[u.arity] {
				continue
			}
			reported[u.arity] = true
			out = append(out, Diagnostic{Severity: Error, Pos: u.pos, Symbol: name,
				Message: fmt.Sprintf("'%s' used with arity %d, but with arity %d at %s",
					name, u.arity, first.arity, first.pos)})
		}
	}
	return out
}

// ---------------------------------------------------------------- R002

// runUndefinedReference reports body conditions over fluents that the
// description never defines, events that are neither declared nor in the
// domain vocabulary, and (when a vocabulary is available) calls to unknown
// background predicates.
func runUndefinedReference(ctx *context) []Diagnostic {
	checkEvents := ctx.hasDecls || ctx.opts.Vocabulary != nil
	var out []Diagnostic
	seen := map[string]bool{}
	add := func(r reference, msg string) {
		d := Diagnostic{Severity: Error, Pos: r.term.Pos, Symbol: r.name, Message: msg}
		d.SuggestedFixes = ctx.renameFixes(r.name)
		out = append(out, d)
	}
	for _, r := range ctx.refs {
		switch r.kind {
		case refFluent:
			if ctx.defined(r.name) || ctx.known(r.name) || seen["f:"+r.name] {
				continue
			}
			seen["f:"+r.name] = true
			add(r, fmt.Sprintf("condition over undefined fluent '%s': no initiatedAt/terminatedAt or holdsFor rule defines it", r.name))
		case refEvent:
			if !checkEvents || ctx.events[r.name] || ctx.known(r.name) || ctx.defined(r.name) || seen["e:"+r.name] {
				continue
			}
			seen["e:"+r.name] = true
			add(r, fmt.Sprintf("happensAt over unknown event '%s': not a declared input event", r.name))
		case refPred:
			if ctx.opts.Vocabulary == nil || ctx.defined(r.name) || ctx.known(r.name) || seen["p:"+r.name] {
				continue
			}
			seen["p:"+r.name] = true
			add(r, fmt.Sprintf("call to unknown background predicate '%s'", r.name))
		}
	}
	return out
}

// renameFixes consults the Rename callback for a repair of an unknown name
// and, when one is known, renders it as a whole-description rename fix.
func (ctx *context) renameFixes(name string) []SuggestedFix {
	if ctx.opts.Rename == nil || !ctx.hasSource() {
		return nil
	}
	to, reason, ok := ctx.opts.Rename(name)
	if !ok {
		return nil
	}
	fix, ok := ctx.renameFix(name, to, fmt.Sprintf("replace '%s' with '%s' (%s)", name, to, reason))
	if !ok {
		return nil
	}
	return []SuggestedFix{fix}
}

// ---------------------------------------------------------------- R003

// runFluentKindConflict reports fluents defined both as simple fluents
// (initiatedAt/terminatedAt rules) and as statically determined fluents
// (holdsFor rules) — a fluent must be one kind or the other.
func runFluentKindConflict(ctx *context) []Diagnostic {
	var out []Diagnostic
	for _, name := range ctx.defNames {
		d := ctx.defs[name]
		if len(d.simple) == 0 || len(d.sd) == 0 {
			continue
		}
		sp, hp := d.simple[0].Pos, d.sd[0].Pos
		pos, other, kind, otherKind := hp, sp, "holdsFor", "initiatedAt/terminatedAt"
		if hp.Before(sp) {
			pos, other, kind, otherKind = sp, hp, "initiatedAt/terminatedAt", "holdsFor"
		}
		out = append(out, Diagnostic{Severity: Error, Pos: pos, Symbol: name,
			Message: fmt.Sprintf("fluent '%s' is defined here with %s rules but with %s rules at %s; a fluent is either simple or statically determined",
				name, kind, otherKind, other)})
	}
	return out
}

// ---------------------------------------------------------------- R004

type depEdge struct {
	to  string
	neg bool
}

// dependencyGraph builds the fluent/predicate dependency graph: one edge
// per (defining clause, body reference to another defined symbol). An edge
// is negative when the reference is negated or when the referenced fluent's
// intervals flow into the subtrahend list of relative_complement_all.
func dependencyGraph(ctx *context) map[string][]depEdge {
	graph := map[string][]depEdge{}
	for _, name := range ctx.defNames {
		d := ctx.defs[name]
		for _, c := range d.clauses() {
			if c.IsFact() {
				continue
			}
			// Map interval variables to the fluent whose holdsFor bound them.
			varFluent := map[string]string{}
			for _, l := range c.Body {
				a := l.Atom
				if !l.Neg && a.Functor == "holdsFor" && len(a.Args) == 2 && a.Args[1].Kind == lang.Var {
					if _, fl := lang.FluentRef(a); fl != nil {
						varFluent[a.Args[1].Functor] = fl.Functor
					}
				}
			}
			for _, l := range c.Body {
				a := l.Atom
				if _, fl := lang.FluentRef(a); fl != nil {
					if ctx.defined(fl.Functor) {
						graph[name] = append(graph[name], depEdge{to: fl.Functor, neg: l.Neg})
					}
					continue
				}
				if a.Functor == "relative_complement_all" && len(a.Args) == 3 && a.Args[1].Kind == lang.List {
					for _, e := range a.Args[1].Args {
						if e.Kind == lang.Var {
							if to, ok := varFluent[e.Functor]; ok {
								graph[name] = append(graph[name], depEdge{to: to, neg: true})
							}
						}
					}
					continue
				}
				if a.IsCallable() && userSymbol(a.Functor) && ctx.defined(a.Functor) {
					graph[name] = append(graph[name], depEdge{to: a.Functor, neg: l.Neg})
				}
			}
		}
	}
	return graph
}

// runDependencyCycle finds strongly connected components of the dependency
// graph. A component with an internal negative edge is unstratifiable
// (error); any other non-trivial component is a recursive definition RTEC
// cannot order (warning).
func runDependencyCycle(ctx *context) []Diagnostic {
	graph := dependencyGraph(ctx)
	sccs := stronglyConnected(ctx.defNames, graph)
	var out []Diagnostic
	for _, scc := range sccs {
		inSCC := map[string]bool{}
		for _, n := range scc {
			inSCC[n] = true
		}
		selfLoop, negInternal := false, false
		for _, n := range scc {
			for _, e := range graph[n] {
				if !inSCC[e.to] {
					continue
				}
				if e.to == n {
					selfLoop = true
				}
				if e.neg {
					negInternal = true
				}
			}
		}
		if len(scc) == 1 && !selfLoop {
			continue
		}
		sort.Strings(scc)
		pos := ctx.defs[scc[0]].firstPos()
		cycle := strings.Join(scc, " -> ") + " -> " + scc[0]
		if negInternal {
			out = append(out, Diagnostic{Severity: Error, Pos: pos, Symbol: scc[0],
				Message: fmt.Sprintf("negation cycle %s: the description cannot be stratified", cycle)})
		} else {
			out = append(out, Diagnostic{Severity: Warning, Pos: pos, Symbol: scc[0],
				Message: fmt.Sprintf("cyclic dependency %s: RTEC processes fluents bottom-up and cannot order this cycle", cycle)})
		}
	}
	return out
}

// stronglyConnected is an iterative Tarjan SCC over the named nodes,
// visiting nodes in sorted order so component discovery is deterministic.
func stronglyConnected(nodes []string, graph map[string][]depEdge) [][]string {
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var sccs [][]string
	next := 0

	type frame struct {
		node string
		edge int
	}
	for _, start := range nodes {
		if _, seen := index[start]; seen {
			continue
		}
		call := []frame{{node: start}}
		for len(call) > 0 {
			f := &call[len(call)-1]
			n := f.node
			if f.edge == 0 {
				index[n] = next
				low[n] = next
				next++
				stack = append(stack, n)
				onStack[n] = true
			}
			advanced := false
			for f.edge < len(graph[n]) {
				e := graph[n][f.edge]
				f.edge++
				if _, seen := index[e.to]; !seen {
					call = append(call, frame{node: e.to})
					advanced = true
					break
				}
				if onStack[e.to] && index[e.to] < low[n] {
					low[n] = index[e.to]
				}
			}
			if advanced {
				continue
			}
			if low[n] == index[n] {
				var scc []string
				for {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[top] = false
					scc = append(scc, top)
					if top == n {
						break
					}
				}
				sccs = append(sccs, scc)
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				parent := call[len(call)-1].node
				if low[n] < low[parent] {
					low[parent] = low[n]
				}
			}
		}
	}
	return sccs
}

// ---------------------------------------------------------------- R005

// runUnusedDefinition reports fluents and auxiliary predicates that are
// defined by rules but referenced by no other definition. Roots (the
// deliverable activities) are exempt; so are names the vocabulary knows,
// since an outer system may query them.
func runUnusedDefinition(ctx *context) []Diagnostic {
	usedBy := map[string]map[string]bool{}
	for _, r := range ctx.refs {
		owner := clauseOwner(r.clause)
		if usedBy[r.name] == nil {
			usedBy[r.name] = map[string]bool{}
		}
		usedBy[r.name][owner] = true
	}
	sev := Info
	if len(ctx.opts.Roots) > 0 {
		sev = Warning
	}
	var out []Diagnostic
	for _, name := range ctx.defNames {
		d := ctx.defs[name]
		if len(d.simple)+len(d.sd)+len(d.aux) == 0 {
			continue // pure facts are data, not definitions
		}
		if ctx.opts.Roots[name] || ctx.known(name) {
			continue
		}
		external := false
		for owner := range usedBy[name] {
			if owner != name {
				external = true
				break
			}
		}
		if external {
			continue
		}
		out = append(out, Diagnostic{Severity: sev, Pos: d.firstPos(), Symbol: name,
			Message: fmt.Sprintf("'%s' is defined but never referenced by another definition", name)})
	}
	return out
}

// clauseOwner names the symbol a clause defines: the head fluent for
// temporal rules, the head functor otherwise.
func clauseOwner(c *lang.Clause) string {
	if _, fl := c.HeadFVP(); fl != nil {
		return fl.Functor
	}
	return c.Head.Functor
}

// ---------------------------------------------------------------- R006

// runDuplicateClause reports clauses that are identical to an earlier
// clause up to variable renaming.
func runDuplicateClause(ctx *context) []Diagnostic {
	seen := map[string]*lang.Clause{}
	var out []Diagnostic
	for _, c := range ctx.ed.Clauses {
		key := canonicalClause(c)
		if first, dup := seen[key]; dup {
			d := Diagnostic{Severity: Warning, Pos: c.Pos,
				Message: fmt.Sprintf("duplicate of the clause at %s", first.Pos)}
			if fix, ok := ctx.deleteClauseFix(c, "delete the duplicate clause"); ok {
				d.SuggestedFixes = []SuggestedFix{fix}
			}
			out = append(out, d)
			continue
		}
		seen[key] = c
	}
	return out
}

// canonicalClause renders a clause with its variables named after the order
// they first occur in, so variants hash identically.
func canonicalClause(c *lang.Clause) string {
	var buf [512]byte
	var names [16]string
	key, _ := c.AppendCanonical(buf[:0], names[:0])
	return string(key)
}

// ---------------------------------------------------------------- R007

// runUnsafeVariable checks rule safety: every head variable, every variable
// of a negated condition or comparison, and every input of an interval
// operator must be bound by some positive body condition. Interval
// operators bind only their output argument. terminatedAt heads are exempt
// from the head-variable check: leaving a fluent argument unbound there is
// standard RTEC idiom (the rule terminates every grounding, e.g. the
// gap_start termination of withinArea).
func runUnsafeVariable(ctx *context) []Diagnostic {
	var out []Diagnostic
	for _, c := range ctx.ed.Clauses {
		if c.IsFact() || c.Head.Functor == "inputEvent" {
			continue
		}
		bound := map[string]bool{}
		for _, l := range c.Body {
			a := l.Atom
			if l.Neg {
				continue
			}
			if nonBindingOp(a.Functor) {
				continue
			}
			if intervalOp(a.Functor) && len(a.Args) > 0 {
				for _, v := range a.Args[len(a.Args)-1].Vars() {
					bound[v] = true
				}
				continue
			}
			for _, v := range a.Vars() {
				bound[v] = true
			}
		}
		reported := map[string]bool{}
		report := func(v string, pos lang.Position, format string) {
			if reported[v] || strings.HasPrefix(v, "_") || bound[v] {
				return
			}
			reported[v] = true
			out = append(out, Diagnostic{Severity: Error, Pos: pos, Symbol: v, Message: fmt.Sprintf(format, v)})
		}
		if c.Head.Functor != "terminatedAt" {
			for _, v := range c.Head.Vars() {
				report(v, c.Pos, "head variable '%s' is not bound by any positive body condition")
			}
		}
		for _, l := range c.Body {
			a := l.Atom
			switch {
			case l.Neg:
				for _, v := range a.Vars() {
					report(v, a.Pos, "variable '%s' appears only in a negated condition")
				}
			case nonBindingOp(a.Functor):
				for _, v := range a.Vars() {
					report(v, a.Pos, "variable '%s' appears only in a comparison and is never bound")
				}
			case intervalOp(a.Functor) && len(a.Args) > 1:
				for _, in := range a.Args[:len(a.Args)-1] {
					for _, v := range in.Vars() {
						report(v, a.Pos, "interval variable '%s' is not bound by any holdsFor condition")
					}
				}
			}
		}
	}
	return out
}

// ---------------------------------------------------------------- R008

// runIntervalOperator checks the shape and placement of the interval
// operators: argument counts, list arguments, output variables, placement
// in holdsFor rules only, no nesting and no negation.
func runIntervalOperator(ctx *context) []Diagnostic {
	var out []Diagnostic
	add := func(sev Severity, pos lang.Position, format string, args ...any) {
		out = append(out, Diagnostic{Severity: sev, Pos: pos, Message: fmt.Sprintf(format, args...)})
	}
	for _, c := range ctx.ed.Clauses {
		timePointRule := c.Head.Functor == "initiatedAt" || c.Head.Functor == "terminatedAt"
		for _, l := range c.Body {
			a := l.Atom
			if intervalOp(a.Functor) {
				if l.Neg {
					add(Error, a.Pos, "interval operator '%s' may not be negated", a.Functor)
				}
				if timePointRule {
					add(Error, a.Pos, "interval operator '%s' in a time-point rule: %s bodies hold at instants, not intervals", a.Functor, c.Head.Functor)
				}
				switch a.Functor {
				case "union_all", "intersect_all":
					if len(a.Args) != 2 {
						add(Error, a.Pos, "'%s' expects 2 arguments (a list of interval variables and an output variable), got %d", a.Functor, len(a.Args))
						break
					}
					checkListArg(&out, a, 0, "first")
					if a.Args[1].Kind != lang.Var {
						add(Warning, a.Args[1].Pos, "output argument of '%s' should be a fresh variable", a.Functor)
					}
				case "relative_complement_all":
					if len(a.Args) != 3 {
						add(Error, a.Pos, "'relative_complement_all' expects 3 arguments (an interval variable, a list to subtract and an output variable), got %d", len(a.Args))
						break
					}
					if a.Args[0].Kind == lang.List {
						add(Error, a.Args[0].Pos, "first argument of 'relative_complement_all' is a single interval variable, not a list")
					}
					checkListArg(&out, a, 1, "second")
					if a.Args[2].Kind != lang.Var {
						add(Warning, a.Args[2].Pos, "output argument of 'relative_complement_all' should be a fresh variable")
					}
				}
			}
			// Nested interval operators anywhere below a condition.
			a.Walk(func(n *lang.Term) bool {
				if n != a && n.Kind == lang.Compound && intervalOp(n.Functor) {
					add(Error, n.Pos, "interval operator '%s' must be a top-level condition of a holdsFor rule, not nested inside another term", n.Functor)
					return false
				}
				return true
			})
		}
		// Interval operators never belong in a head.
		c.Head.Walk(func(n *lang.Term) bool {
			if n.Kind == lang.Compound && intervalOp(n.Functor) {
				add(Error, n.Pos, "interval operator '%s' cannot appear in a rule head", n.Functor)
				return false
			}
			return true
		})
	}
	return out
}

// checkListArg validates that argument i of an interval operator is a list
// of interval variables.
func checkListArg(out *[]Diagnostic, a *lang.Term, i int, ord string) {
	arg := a.Args[i]
	if arg.Kind == lang.Var {
		return // a variable may be bound to a list elsewhere
	}
	if arg.Kind != lang.List {
		*out = append(*out, Diagnostic{Severity: Error, Pos: arg.Pos,
			Message: fmt.Sprintf("%s argument of '%s' must be a list of interval variables", ord, a.Functor)})
		return
	}
	if len(arg.Args) == 0 {
		*out = append(*out, Diagnostic{Severity: Warning, Pos: arg.Pos,
			Message: fmt.Sprintf("empty interval list in '%s' always yields no intervals", a.Functor)})
	}
}

// ---------------------------------------------------------------- R009

// runMalformedTemporalHead checks the shape of temporal rule heads: exactly
// two arguments, the first a fluent=value pair over a callable fluent. It
// also rejects attempts to define holdsAt directly.
func runMalformedTemporalHead(ctx *context) []Diagnostic {
	var out []Diagnostic
	for _, c := range ctx.ed.Clauses {
		h := c.Head
		if h.Functor == "holdsAt" && len(c.Body) > 0 {
			out = append(out, Diagnostic{Severity: Error, Pos: c.Pos,
				Message: "holdsAt cannot be defined directly: define the fluent with initiatedAt/terminatedAt or holdsFor rules"})
			continue
		}
		if !lang.IsRuleHead(h.Functor) {
			continue
		}
		if h.Kind != lang.Compound || len(h.Args) != 2 {
			out = append(out, Diagnostic{Severity: Error, Pos: c.Pos,
				Message: fmt.Sprintf("'%s' head expects 2 arguments (fluent=value and a time point or interval variable), got %d", h.Functor, len(h.Args))})
			continue
		}
		if fvp, _ := c.HeadFVP(); fvp == nil {
			out = append(out, Diagnostic{Severity: Error, Pos: c.Pos,
				Message: fmt.Sprintf("'%s' head must be over a fluent=value pair, found '%s'", h.Functor, h.Args[0])})
		}
	}
	return out
}

// ---------------------------------------------------------------- R010

// runUnknownName reports names that are neither RTEC syntax, nor domain
// vocabulary, nor defined or referenced elsewhere in the description —
// typically misremembered constants ('trawlingArea' for 'fishing'). It
// needs a vocabulary to compare against and is skipped without one.
func runUnknownName(ctx *context) []Diagnostic {
	if ctx.opts.Vocabulary == nil {
		return nil
	}
	// Names already handled by R002 (references) are excluded here.
	referenced := map[string]bool{}
	for _, r := range ctx.refs {
		referenced[r.name] = true
	}
	seen := map[string]bool{}
	var out []Diagnostic
	for _, c := range ctx.ed.Clauses {
		terms := []*lang.Term{c.Head}
		for _, l := range c.Body {
			terms = append(terms, l.Atom)
		}
		for _, t := range terms {
			t.Walk(func(n *lang.Term) bool {
				if n.Kind != lang.Atom && n.Kind != lang.Compound {
					return true
				}
				name := n.Functor
				if seen[name] || !userSymbol(name) ||
					ctx.known(name) || ctx.defined(name) || referenced[name] {
					return true
				}
				seen[name] = true
				d := Diagnostic{Severity: Warning, Pos: n.Pos, Symbol: name,
					Message: fmt.Sprintf("'%s' is not in the domain vocabulary and is not defined by the description", name)}
				d.SuggestedFixes = ctx.renameFixes(name)
				out = append(out, d)
				return true
			})
		}
	}
	return out
}
