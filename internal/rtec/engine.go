// Package rtec implements the Run-Time Event Calculus: windowed recognition
// of composite activities over event streams, based on an event description
// with simple fluents (initiatedAt/terminatedAt rules, subject to the law of
// inertia) and statically determined fluents (holdsFor rules over the
// interval-manipulation constructs), organised in a hierarchy that is
// computed bottom-up and cached per window (Artikis et al., TKDE 2015).
package rtec

import (
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"

	"rtecgen/internal/kb"
	"rtecgen/internal/lang"
	"rtecgen/internal/telemetry"
)

// FluentKind distinguishes the two ways a composite activity may be defined.
type FluentKind int

const (
	// Simple fluents are defined by initiatedAt/terminatedAt rules and are
	// subject to the commonsense law of inertia.
	Simple FluentKind = iota
	// SD fluents are statically determined: defined by a holdsFor rule over
	// the maximal intervals of other fluents.
	SD
)

func (k FluentKind) String() string {
	if k == Simple {
		return "simple"
	}
	return "statically determined"
}

// Warning records a non-fatal problem found while loading or evaluating an
// event description: a rule that had to be skipped, an unknown predicate, a
// cyclic definition. LLM-generated event descriptions routinely trigger
// warnings; the engine keeps going with the usable subset, mirroring how a
// human would salvage a partially correct specification.
type Warning struct {
	Fluent string
	Msg    string
}

func (w Warning) String() string {
	if w.Fluent == "" {
		return w.Msg
	}
	return w.Fluent + ": " + w.Msg
}

// uniqueWarnings returns the warnings without repeats, each where it first
// occurs: what Recognition.Warnings holds however the run was driven — a
// fluent that warns alike in ten windows, or again in a revision, or in two
// shards, is listed once. (The log carries one line per window.)
func uniqueWarnings(ws []Warning) []Warning {
	var out []Warning
	seen := make(map[Warning]bool, len(ws))
	for _, w := range ws {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// fluentDef aggregates everything the engine knows about one fluent
// (identified by its indicator, e.g. "withinArea/2").
type fluentDef struct {
	ind      string       // indicator string, e.g. "withinArea/2"
	pred     lang.PredKey // same predicate, as a comparable key (no string building)
	kind     FluentKind
	inits    []*rule // simple: initiatedAt rules, compiled (see compile.go)
	terms    []*rule // simple: terminatedAt rules
	holdsFor []*rule // sd: holdsFor rules (one per value), with the fluent's grounding declarations
	deps     map[string]bool
	level    int
	// namedReads reports that every holdsAt/holdsFor condition of the fluent's
	// rules names its fluent in the rule text, so deps lists every fluent
	// whose cached intervals an evaluation can read. holdsAt(F=V, T) with F
	// bound at run time can read any fluent's: such a fluent's inputs are not
	// known statically, so it gets no definition fingerprint and the delta
	// layer never answers it from carried state.
	namedReads bool
	// deltaEligible marks a simple fluent whose every rule is time-local
	// (see timeLocalRule in delta.go) and reads named fluents only: its
	// per-anchor-time acts may be replayed across window slides.
	deltaEligible bool
	// sortedDeps is deps in deterministic order, for the dirty-region union
	// and the definition fingerprint.
	sortedDeps []string
	// text is the fluent's own part of its definition fingerprint: the
	// indicator and the compiled rules in evaluation order, variables named
	// by slot. Empty for a fluent that gets no fingerprint. exact is the
	// same with the "_r"/"_g<i>" names warnings print, which only a result
	// that carries warnings depends on (see sharedRun.load). Both are set
	// by Engine.fingerprint, the first time a fluent table asks.
	text, exact string
}

// Engine is a loaded RTEC reasoner. Build one with New, then call Run.
// An Engine is immutable after New (apart from the definition fingerprints,
// computed once on first use) and safe for concurrent Runs.
type Engine struct {
	ed            *lang.EventDescription
	kb            *kb.KB
	opts          Options
	fluents       map[string]*fluentDef
	fluentsByPred map[lang.PredKey]*fluentDef
	order         []string // fluent indicators in dependency (stratum) order
	inputEvents   map[string]bool
	warnings      []Warning
	// interner maps ground FVP terms to stable IDs with cached canonical
	// renderings: the per-window caches key by ID, so an FVP's string is
	// built once per engine lifetime instead of once per cache access.
	interner *lang.Interner
	// workers is the resolved size of the per-stratum evaluation pool
	// (Options.Workers, defaulting to GOMAXPROCS).
	workers int
	// kbText is the canonical text of the materialised background knowledge
	// (kb.AppendText): the one part of every fluent's definition fingerprint
	// that covers what atemporal conditions and grounding declarations read.
	// fingerprinted guards it and the fluents' texts.
	kbText        []byte
	fingerprinted sync.Once
	// edFingerprint identifies the loaded event description (fnv-64a of its
	// text): a resumed run must be driven by the same rules that wrote the
	// snapshot. Printed and hashed on first use, once per engine.
	edFingerprint func() string
}

// Workers returns the resolved evaluation worker count.
func (e *Engine) Workers() int { return e.workers }

// Warnings returns the problems found while loading the event description.
func (e *Engine) Warnings() []Warning { return e.warnings }

// Fluents returns the indicators of the defined fluents in evaluation order.
func (e *Engine) Fluents() []string { return append([]string(nil), e.order...) }

// FluentKindOf returns the kind of a defined fluent and whether it exists.
func (e *Engine) FluentKindOf(ind string) (FluentKind, bool) {
	f, ok := e.fluents[ind]
	if !ok {
		return 0, false
	}
	return f.kind, true
}

// Options configure engine construction.
type Options struct {
	// Strict makes New fail on any problem that would otherwise produce a
	// warning and a skipped rule (useful for validating the gold standard).
	Strict bool
	// ExtraFacts are added to the background KB before materialisation,
	// e.g. the dynamic entity registry extracted from a stream.
	ExtraFacts []*lang.Term
	// DisableCache turns off the hierarchical caching of intermediate FVP
	// intervals within a window: the dependencies of each fluent are
	// recomputed from scratch instead of being computed once bottom-up.
	// This is the ablation of RTEC's caching optimisation (Section 2 of
	// the paper credits hierarchies with "paving the way for caching");
	// results are identical, only slower.
	DisableCache bool
	// DisableDelta turns off incremental sliding-window evaluation: every
	// window is evaluated from scratch instead of replaying the previous
	// window's cached derivations for the unchanged overlap (see delta.go).
	// Results are identical, only slower — the full re-evaluation path is
	// the differential-testing oracle for the delta layer.
	DisableDelta bool
	// Workers bounds the per-stratum evaluation pool: groundings of the
	// same stratum are partitioned by entity key onto this many workers,
	// with results merged in deterministic order, so recognition output is
	// byte-identical for every value. 0 (the default) resolves to
	// GOMAXPROCS; 1 evaluates inline on the calling goroutine, reproducing
	// the classic sequential code path exactly.
	Workers int
	// Telemetry, when non-nil, receives the engine's observability signals:
	// per-run and per-window spans, counters (events ingested, windows
	// evaluated, FVPs grounded, intervals amalgamated, warnings),
	// per-stratum evaluation-time histograms, and load/runtime warnings on
	// the structured logger. A nil Telemetry costs only nil checks.
	Telemetry *telemetry.Telemetry
}

// New analyses and loads an event description: it classifies the fluents,
// validates rule shapes, builds the background KB, and stratifies the
// fluent hierarchy bottom-up. In non-strict mode, unusable rules and cyclic
// definitions are dropped with warnings instead of failing the load.
func New(ed *lang.EventDescription, opts Options) (*Engine, error) {
	background, err := kb.FromEventDescription(ed, opts.ExtraFacts...)
	if err != nil {
		return nil, fmt.Errorf("rtec: background KB: %w", err)
	}
	e := &Engine{
		ed:            ed,
		kb:            background,
		opts:          opts,
		fluents:       map[string]*fluentDef{},
		fluentsByPred: map[lang.PredKey]*fluentDef{},
		inputEvents:   map[string]bool{},
		interner:      lang.NewInterner(),
		workers:       opts.Workers,
		edFingerprint: sync.OnceValue(func() string {
			h := fnv.New64a()
			io.WriteString(h, ed.String())
			return fmt.Sprintf("%016x", h.Sum64())
		}),
	}
	if e.workers <= 0 {
		e.workers = runtime.GOMAXPROCS(0)
	}

	for _, c := range ed.Facts() {
		if c.Head.Functor == "inputEvent" && len(c.Head.Args) == 1 && c.Head.Args[0].IsCallable() {
			e.inputEvents[c.Head.Args[0].Indicator()] = true
		}
	}

	groundings := map[string][]*lang.Clause{}
	for _, c := range ed.BackgroundRules() {
		if c.Head.Functor == "grounding" && len(c.Head.Args) == 1 && c.Head.Args[0].IsCallable() {
			ind := c.Head.Args[0].Indicator()
			groundings[ind] = append(groundings[ind], c)
		}
	}

	warn := func(fluent, format string, args ...any) error {
		w := Warning{Fluent: fluent, Msg: fmt.Sprintf(format, args...)}
		if opts.Strict {
			return fmt.Errorf("rtec: %s", w)
		}
		e.warnings = append(e.warnings, w)
		opts.Telemetry.Logger().Warn(w.Msg, "component", "rtec", "stage", "load", "fluent", w.Fluent)
		return nil
	}

	for _, c := range ed.Rules() {
		_, fl := c.HeadFVP()
		if fl == nil {
			if err := warn("", "rule head %s has no F=V fluent-value pair; rule dropped", c.Head); err != nil {
				return nil, err
			}
			continue
		}
		ind := fl.Indicator()
		def := e.fluents[ind]
		if def == nil {
			def = &fluentDef{ind: ind, pred: fl.Pred(), deps: map[string]bool{}}
			e.fluents[ind] = def
			e.fluentsByPred[def.pred] = def
		}
		switch c.Kind() {
		case lang.KindInitiatedAt:
			if msg := checkSimpleRule(c); msg != "" {
				if err := warn(ind, "initiatedAt rule dropped: %s", msg); err != nil {
					return nil, err
				}
				continue
			}
			def.inits = append(def.inits, compileRule(c, nil, background))
		case lang.KindTerminatedAt:
			if msg := checkSimpleRule(c); msg != "" {
				if err := warn(ind, "terminatedAt rule dropped: %s", msg); err != nil {
					return nil, err
				}
				continue
			}
			def.terms = append(def.terms, compileRule(c, nil, background))
		case lang.KindHoldsFor:
			if msg := checkSDRule(c); msg != "" {
				if err := warn(ind, "holdsFor rule dropped: %s", msg); err != nil {
					return nil, err
				}
				continue
			}
			def.holdsFor = append(def.holdsFor, compileRule(c, groundings[ind], background))
		}
	}

	// Classify fluent kinds; mixing initiatedAt/terminatedAt with holdsFor
	// for the same fluent is invalid, keep the majority shape.
	for ind, def := range e.fluents {
		switch {
		case len(def.holdsFor) > 0 && len(def.inits)+len(def.terms) > 0:
			if err := warn(ind, "fluent defined both as simple and statically determined; keeping the %s rules",
				map[bool]string{true: "holdsFor", false: "initiatedAt/terminatedAt"}[len(def.holdsFor) >= len(def.inits)+len(def.terms)]); err != nil {
				return nil, err
			}
			if len(def.holdsFor) >= len(def.inits)+len(def.terms) {
				def.kind, def.inits, def.terms = SD, nil, nil
			} else {
				def.kind, def.holdsFor = Simple, nil
			}
		case len(def.holdsFor) > 0:
			def.kind = SD
		default:
			def.kind = Simple
		}
	}

	// Drop fluents left with no rules at all.
	for ind, def := range e.fluents {
		if len(def.inits)+len(def.terms)+len(def.holdsFor) == 0 {
			delete(e.fluents, ind)
			delete(e.fluentsByPred, def.pred)
			if err := warn(ind, "no usable rules remain; fluent dropped"); err != nil {
				return nil, err
			}
		}
	}

	// Dependency graph: fluent -> fluents referenced in holdsAt/holdsFor
	// body conditions of its rules (ruleReads, which Demand walks too), and
	// whether the rules name every fluent they read.
	for _, def := range e.fluents {
		def.namedReads = true
		for _, r := range append(append(append([]*rule{}, def.inits...), def.terms...), def.holdsFor...) {
			sd := r.src.Kind() == lang.KindHoldsFor
			named := ruleReads(r.src, func(dep string) {
				if _, defined := e.fluents[dep]; defined && dep != def.ind {
					def.deps[dep] = true
				}
				if dep == def.ind && sd {
					// Self-reference in a holdsFor body is a cycle by
					// construction; handled below via the graph.
					def.deps[dep] = true
				}
			})
			def.namedReads = def.namedReads && named
		}
	}

	if err := e.stratify(warn); err != nil {
		return nil, err
	}

	// Static delta eligibility and the deterministic dependency order the
	// dirty-region propagation unions over (see delta.go). Both are
	// properties of the rules alone, so they are decided once per engine.
	for _, def := range e.fluents {
		if def.kind == Simple {
			def.deltaEligible = def.namedReads
			for _, r := range append(append([]*rule{}, def.inits...), def.terms...) {
				if !timeLocalRule(r.src) {
					def.deltaEligible = false
					break
				}
			}
		}
		for d := range def.deps {
			if _, ok := e.fluents[d]; ok {
				def.sortedDeps = append(def.sortedDeps, d)
			}
		}
		sort.Strings(def.sortedDeps)
	}
	return e, nil
}

// fingerprint gives every fluent whose evaluation in a window is a function
// of things a text can name its definition fingerprint, in stratum order.
// Evaluating a fluent reads its compiled rules in order (and, for a holdsFor
// rule, the grounding declarations compiled into it), the window's events
// and bounds, the FVPs of the fluent itself that were open at the window
// start, the background knowledge, and the cached intervals of the fluents
// its holdsAt/holdsFor conditions name. The rules are def.text; the
// background knowledge is e.kbText; the dependencies enter by their own
// fingerprints when a fluent table resolves the texts to ids
// (fluentTable.fingerprints), and a reference to an undefined or dropped
// fluent enters by its absence from sortedDeps; events, bounds and — by
// induction over the windows — the carried-in FVPs are the same for every
// engine run over one Prepared. What is left out is a condition whose
// fluent is not known until run time, holdsAt(F=V, T) with a variable F: it
// can read any fluent's intervals, so its fluent gets no fingerprint, nor
// does anything that depends on that fluent.
//
// The texts are rendered the first time a fluent table asks for them, not
// by New: an engine that only ever runs alone (cmd/rtec, rtecd) never pays
// for them.
func (e *Engine) fingerprint() {
	e.fingerprinted.Do(func() {
		e.kbText = e.kb.AppendText(nil)
		var canon []byte
		var vars []string
		for _, ind := range e.order {
			def := e.fluents[ind]
			rules := append(append(append([]*rule{}, def.inits...), def.terms...), def.holdsFor...)
			if !e.readsNamedFluents(def) {
				continue
			}
			text, exact := appendPart(nil, ind), []byte(nil)
			for _, r := range rules {
				// One numbering across a rule and its grounding declarations:
				// they share a slot space, and their names are apart.
				vars = vars[:0]
				for _, c := range r.numbered {
					canon, vars = c.AppendCanonical(canon[:0], vars)
					text = appendPart(text, string(canon))
					exact = appendPart(exact, c.String())
				}
			}
			def.text, def.exact = string(text), string(exact)
		}
	})
}

// readsNamedFluents reports whether every cached interval list the rules
// can read belongs to a fluent named in the rule text, and every such
// fluent that is defined has a fingerprint itself.
func (e *Engine) readsNamedFluents(def *fluentDef) bool {
	if !def.namedReads {
		return false
	}
	for _, dep := range def.sortedDeps {
		if e.fluents[dep].text == "" {
			return false
		}
	}
	return true
}

// checkSimpleRule validates the shape of an initiatedAt/terminatedAt rule:
// it must contain at least one positive happensAt condition to anchor
// event-driven evaluation (Definition 2.2 requires it to come first; the
// engine tolerates any position).
func checkSimpleRule(c *lang.Clause) string {
	fvp, _ := c.HeadFVP()
	if fvp == nil {
		return "head has no F=V fluent-value pair"
	}
	if c.Anchor() < 0 {
		return "no positive happensAt condition to anchor evaluation"
	}
	return ""
}

// checkSDRule validates the shape of a holdsFor rule: the head interval
// argument must be a variable that is produced by the body.
func checkSDRule(c *lang.Clause) string {
	fvp, _ := c.HeadFVP()
	if fvp == nil {
		return "head has no F=V fluent-value pair"
	}
	if c.Head.Args[1].Kind != lang.Var {
		return "head interval argument must be a variable"
	}
	if len(c.Body) == 0 {
		return "empty body"
	}
	for _, l := range c.Body {
		if l.Atom.Functor == "happensAt" || l.Atom.Functor == "holdsAt" {
			return fmt.Sprintf("condition %s is not allowed in a statically determined definition", l.Atom)
		}
	}
	return ""
}

// stratify orders fluents bottom-up by dependencies. Cyclic fluents are
// dropped with a warning in non-strict mode.
func (e *Engine) stratify(warn func(fluent, format string, args ...any) error) error {
	const (
		unvisited = 0
		inStack   = 1
		done      = 2
	)
	state := map[string]int{}
	var order []string
	var cyclic []string

	var visit func(ind string, trail []string) bool
	visit = func(ind string, trail []string) bool {
		switch state[ind] {
		case done:
			return true
		case inStack:
			return false
		}
		state[ind] = inStack
		def := e.fluents[ind]
		deps := make([]string, 0, len(def.deps))
		for d := range def.deps {
			deps = append(deps, d)
		}
		sort.Strings(deps)
		ok := true
		for _, d := range deps {
			if _, exists := e.fluents[d]; !exists {
				continue
			}
			if !visit(d, append(trail, ind)) {
				ok = false
			}
		}
		if !ok {
			state[ind] = done
			cyclic = append(cyclic, ind)
			return false
		}
		state[ind] = done
		def.level = len(order)
		order = append(order, ind)
		return true
	}

	inds := make([]string, 0, len(e.fluents))
	for ind := range e.fluents {
		inds = append(inds, ind)
	}
	sort.Strings(inds)
	for _, ind := range inds {
		visit(ind, nil)
	}
	for _, ind := range cyclic {
		if def, ok := e.fluents[ind]; ok {
			delete(e.fluentsByPred, def.pred)
		}
		delete(e.fluents, ind)
		if err := warn(ind, "cyclic definition; fluent dropped (RTEC hierarchies must be acyclic)"); err != nil {
			return err
		}
	}
	// Remove dropped fluents from the order.
	e.order = e.order[:0]
	for _, ind := range order {
		if _, ok := e.fluents[ind]; ok {
			e.order = append(e.order, ind)
		}
	}
	return nil
}

// depsClosure returns the transitive dependencies of a fluent, in stratum
// order (lowest first), excluding the fluent itself.
func (e *Engine) depsClosure(ind string) []string {
	seen := map[string]bool{}
	var visit func(string)
	visit = func(i string) {
		if seen[i] {
			return
		}
		seen[i] = true
		if def, ok := e.fluents[i]; ok {
			for d := range def.deps {
				visit(d)
			}
		}
	}
	visit(ind)
	delete(seen, ind)
	var out []string
	for _, i := range e.order {
		if seen[i] {
			out = append(out, i)
		}
	}
	return out
}

// fvpKey returns the canonical cache key of a ground FVP term '='(F, V).
// It renders the term, so it only belongs on boundary paths (checkpoint
// restore, the public Recognition API); within a window the engine keys by
// intern ID and reads cached renderings from the intern table instead of
// re-rendering per access.
func fvpKey(fvp *lang.Term) string { return fvp.String() }

// fluentKeyOf returns the indicator of the fluent inside an FVP term. Like
// fvpKey, it builds a string and is reserved for boundary paths; hot paths
// use fvpPred, which compares functor/arity pairs without concatenation.
func fluentKeyOf(fvp *lang.Term) string {
	if pred, ok := fvpPred(fvp, nil); ok {
		return pred.String()
	}
	return ""
}

// fvpPred returns the predicate key of the fluent inside an FVP term
// '='(F, V), read through the bindings b (nil for a term taken as written);
// ok is false for any other term shape.
func fvpPred(fvp *lang.Term, b *lang.Bindings) (lang.PredKey, bool) {
	if fvp = b.Walk(fvp); fvp.Kind == lang.Compound && fvp.Functor == "=" && len(fvp.Args) == 2 {
		if f := b.Walk(fvp.Args[0]); f.IsCallable() {
			return f.Pred(), true
		}
	}
	return lang.PredKey{}, false
}

// describe renders the hierarchy for debugging and documentation.
func (e *Engine) describe() string {
	var b strings.Builder
	for _, ind := range e.order {
		def := e.fluents[ind]
		fmt.Fprintf(&b, "%s (%s, level %d)\n", ind, def.kind, def.level)
	}
	return b.String()
}

// Describe returns a human-readable summary of the loaded hierarchy.
func (e *Engine) Describe() string { return e.describe() }
