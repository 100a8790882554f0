// Package analysis is a gold-standard-free multi-pass static analyzer
// ("rteclint") for RTEC event descriptions. Where internal/check classifies
// defects against a known gold standard, this package vets an arbitrary
// parsed event description on its own: it builds a symbol table, a fluent
// dependency graph and a reference index, and runs a fixed sequence of
// passes, each with a stable diagnostic code. Diagnostics carry real source
// positions (threaded from internal/parser) and are deterministically
// ordered, so reports are byte-stable across runs.
package analysis

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"rtecgen/internal/lang"
	"rtecgen/internal/telemetry"
)

// Severity grades a diagnostic.
type Severity int

const (
	// Info marks an observation that needs no action (e.g. a fluent that is
	// defined but never referenced, which is normal for top-level activities).
	Info Severity = iota
	// Warning marks a construct that is legal but likely unintended.
	Warning
	// Error marks a defect that would break or silently corrupt recognition.
	Error
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return "unknown"
}

// MarshalJSON renders the severity as its lower-case name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// Diagnostic is one analyzer finding: a stable code, a severity, the source
// position of the offending construct and a human-readable message. Symbol
// names the offending user symbol when the finding is about one (the
// misspelled constant, the undefined fluent, the conflicting predicate), so
// downstream tools — notably the syntactic corrector — can consume findings
// without parsing messages.
type Diagnostic struct {
	Code     string        `json:"code"`
	Severity Severity      `json:"severity"`
	Pos      lang.Position `json:"pos"`
	Message  string        `json:"message"`
	Symbol   string        `json:"symbol,omitempty"`
	// SuggestedFixes are machine-applicable repairs, present only when the
	// analyzer was given the source text (Options.Source). Each fix is
	// self-contained; ApplyFixes arbitrates overlaps between fixes.
	SuggestedFixes []SuggestedFix `json:"suggestedFixes,omitempty"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s %s: %s", d.Pos, d.Severity, d.Code, d.Message)
}

// Pass is one named analysis pass with a stable diagnostic code.
type Pass struct {
	Code string // stable diagnostic code, e.g. "R001"
	Name string // short kebab-case name, e.g. "arity-mismatch"
	Doc  string // one-line description for documentation and the CLI
	run  func(*context) []Diagnostic
}

// Passes returns the analyzer's pass catalogue in execution order.
func Passes() []Pass { return append([]Pass(nil), passes...) }

var passes = []Pass{
	{"R001", "arity-mismatch", "a predicate, event or fluent is used with conflicting arities", runArityMismatch},
	{"R002", "undefined-reference", "a rule body references a fluent or event that is never defined or declared", runUndefinedReference},
	{"R003", "fluent-kind-conflict", "a fluent is defined both with initiatedAt/terminatedAt and with holdsFor rules", runFluentKindConflict},
	{"R004", "dependency-cycle", "the fluent dependency graph has a cycle; cycles through negation are unstratifiable", runDependencyCycle},
	{"R005", "unused-definition", "a fluent or auxiliary predicate is defined but never referenced", runUnusedDefinition},
	{"R006", "duplicate-clause", "two clauses are identical up to variable renaming", runDuplicateClause},
	{"R007", "unsafe-variable", "a head variable is not bound by any positive body condition", runUnsafeVariable},
	{"R008", "interval-operator-misuse", "union_all/intersect_all/relative_complement_all used with the wrong shape or in the wrong place", runIntervalOperator},
	{"R009", "malformed-temporal-rule", "an initiatedAt/terminatedAt/holdsFor head does not have the fluent=value shape", runMalformedTemporalHead},
	{"R010", "unknown-name", "a name is neither RTEC syntax, domain vocabulary, nor defined by the description", runUnknownName},
	{"R011", "contradictory-initiation", "the same conditions initiate and terminate a fluent-value pair, so its intervals are always empty", runContradictoryInitiation},
	{"R012", "unreachable-fluent", "a fluent's dependency closure never bottoms out at an input event, or a referenced fluent value is never produced", runUnreachableFluent},
	{"R013", "sort-inference", "argument sorts inferred from the vocabulary clash, e.g. an entity identifier compared to a number", runSortInference},
	{"R014", "redundant-condition", "a body condition is duplicated or subsumed by a strictly stronger comparison in the same body", runRedundantCondition},
	{"R015", "never-terminated", "a simple fluent value is initiated but never terminated, so it holds forever once initiated", runNeverTerminated},
	{"R016", "vacuous-threshold", "a comparison is trivially true or false given declared constants", runVacuousThreshold},
}

// Options tunes the analyzer.
type Options struct {
	// Vocabulary holds externally known names: the domain's input events,
	// background predicates, thresholds and constants. When nil, the
	// vocabulary-dependent checks (R010 entirely, and the event-reference
	// part of R002 unless the description declares its own inputEvent facts)
	// are skipped, keeping the analyzer usable on a bare file.
	Vocabulary map[string]bool
	// Roots names the fluents that are deliverables of the description
	// (e.g. the curriculum activities). Roots are exempt from R005; when
	// Roots is non-empty, other unused definitions are warnings rather
	// than infos.
	Roots map[string]bool
	// Source is the text the event description was parsed from. When set,
	// passes attach SuggestedFixes whose TextEdits are byte offsets into
	// this exact text; when empty, diagnostics carry no fixes.
	Source string
	// Rename, when non-nil, proposes a replacement for an unknown name
	// flagged by R002/R010 (e.g. a documented alias or a near-miss of the
	// vocabulary). It returns the replacement, a short reason for the fix
	// message, and whether a replacement is known.
	Rename func(name string) (to, reason string, ok bool)
	// Sorts maps a documented event or background-predicate functor to the
	// sorts of its arguments (lower-cased pattern argument names), feeding
	// the R013 sort-inference pass. See prompt.Domain.ArgSorts.
	Sorts map[string][]string
	// Constants maps threshold names to known numeric values, letting R016
	// fold comparisons over threshold-bound variables. Threshold facts
	// declared by the description itself take precedence.
	Constants map[string]float64
	// Span is the parent span for the per-pass spans; may be nil.
	Span *telemetry.Span
}

// Report is the outcome of analyzing one event description.
type Report struct {
	Diagnostics []Diagnostic `json:"diagnostics"`
}

// Analyze runs every pass over the event description and returns the
// deterministically ordered report.
func Analyze(ed *lang.EventDescription, opts Options) *Report {
	ctx := newContext(ed, opts)
	var out []Diagnostic
	for _, p := range passes {
		sp := opts.Span.Span("analysis.pass",
			telemetry.String("code", p.Code), telemetry.String("name", p.Name))
		ds := p.run(ctx)
		for i := range ds {
			ds[i].Code = p.Code
		}
		sp.SetAttrs(telemetry.Int("diagnostics", int64(len(ds))))
		sp.End()
		out = append(out, ds...)
	}
	// Order by (Pos, Code, Symbol, Message): the Symbol tie-break keeps
	// reports byte-stable when several passes flag different symbols of the
	// same clause at identical positions.
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos != b.Pos {
			return a.Pos.Before(b.Pos)
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		if a.Symbol != b.Symbol {
			return a.Symbol < b.Symbol
		}
		return a.Message < b.Message
	})
	return &Report{Diagnostics: out}
}

// HasErrors reports whether any diagnostic is of Error severity.
func (r *Report) HasErrors() bool {
	for _, d := range r.Diagnostics {
		if d.Severity == Error {
			return true
		}
	}
	return false
}

// Max returns the highest severity present, or Info for an empty report.
func (r *Report) Max() Severity {
	max := Info
	for _, d := range r.Diagnostics {
		if d.Severity > max {
			max = d.Severity
		}
	}
	return max
}

// CountByCode aggregates the diagnostics per code.
func (r *Report) CountByCode() map[string]int {
	out := map[string]int{}
	for _, d := range r.Diagnostics {
		out[d.Code]++
	}
	return out
}

// Codes returns the sorted set of distinct codes present in the report.
func (r *Report) Codes() []string {
	seen := map[string]bool{}
	var out []string
	for _, d := range r.Diagnostics {
		if !seen[d.Code] {
			seen[d.Code] = true
			out = append(out, d.Code)
		}
	}
	sort.Strings(out)
	return out
}

// ByCode returns the diagnostics with the given code, in report order.
func (r *Report) ByCode(code string) []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if d.Code == code {
			out = append(out, d)
		}
	}
	return out
}

// Filter returns a report holding only diagnostics at or above min.
func (r *Report) Filter(min Severity) *Report {
	out := &Report{}
	for _, d := range r.Diagnostics {
		if d.Severity >= min {
			out.Diagnostics = append(out.Diagnostics, d)
		}
	}
	return out
}

// Text renders the report one diagnostic per line, ending with a summary
// line, matching the layout of cmd/rteclint's default output.
func (r *Report) Text() string {
	var b strings.Builder
	for _, d := range r.Diagnostics {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	errs, warns, infos := 0, 0, 0
	for _, d := range r.Diagnostics {
		switch d.Severity {
		case Error:
			errs++
		case Warning:
			warns++
		default:
			infos++
		}
	}
	fmt.Fprintf(&b, "%d errors, %d warnings, %d infos\n", errs, warns, infos)
	return b.String()
}

// JSON renders the report as indented JSON.
func (r *Report) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }
