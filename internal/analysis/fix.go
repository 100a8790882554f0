package analysis

import (
	"fmt"
	"sort"
	"strings"
	"unicode"

	"rtecgen/internal/lang"
)

// This file implements the machine-applicable side of the analyzer: spans
// and text edits over the analyzed source, suggested fixes attached to
// diagnostics, an applier with overlap detection, and the fixpoint driver
// that re-parses and re-analyzes until the description is as clean as the
// fixes can make it.

// Span is a half-open byte range [Start, End) into the analyzed source.
type Span struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

// TextEdit replaces the text of Span with NewText. A deletion has an empty
// NewText; a pure insertion has an empty span.
type TextEdit struct {
	Span    Span   `json:"span"`
	NewText string `json:"newText"`
}

// SuggestedFix is one machine-applicable repair for a diagnostic: a message
// describing the repair and the edits that perform it. All edits of a fix
// are applied together or not at all.
type SuggestedFix struct {
	Message string     `json:"message"`
	Edits   []TextEdit `json:"edits"`
}

// lineOffsets returns the byte offset of the start of every line of src.
func lineOffsets(src string) []int {
	offs := []int{0}
	for i := 0; i < len(src); i++ {
		if src[i] == '\n' {
			offs = append(offs, i+1)
		}
	}
	return offs
}

// hasSource reports whether the analyzed source text is available, i.e.
// whether passes can attach suggested fixes.
func (ctx *context) hasSource() bool { return ctx.opts.Source != "" }

// offsetOf maps a 1-based source position to a byte offset into the
// analyzed source. The lexer counts columns in bytes, so the mapping is
// exact.
func (ctx *context) offsetOf(pos lang.Position) (int, bool) {
	if !ctx.hasSource() || !pos.IsValid() || pos.Line > len(ctx.lineOff) {
		return 0, false
	}
	off := ctx.lineOff[pos.Line-1] + pos.Col - 1
	if off < 0 || off > len(ctx.opts.Source) {
		return 0, false
	}
	return off, true
}

func isSpaceByte(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

func isIdentByte(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

// scanToken advances a tiny source scanner past comments, quoted atoms and
// strings, tracking bracket depth, and reports whether the byte at i is a
// clause- or condition-level occurrence of a terminator. It returns the
// next index to inspect.
func scanStep(src string, i int, depth *int) (next int, terminator byte) {
	switch c := src[i]; c {
	case '%':
		for i < len(src) && src[i] != '\n' {
			i++
		}
		return i, 0
	case '\'':
		i++
		for i < len(src) && src[i] != '\'' {
			i++
		}
		return i + 1, 0
	case '"':
		i++
		for i < len(src) && src[i] != '"' {
			if src[i] == '\\' {
				i++
			}
			i++
		}
		return i + 1, 0
	case '(', '[':
		*depth++
		return i + 1, 0
	case ')', ']':
		*depth--
		return i + 1, 0
	case '.':
		// A '.' between two digits is part of a float, not a terminator.
		if *depth == 0 && !(i > 0 && isDigit(src[i-1]) && i+1 < len(src) && isDigit(src[i+1])) {
			return i, '.'
		}
		return i + 1, 0
	case ',':
		if *depth == 0 {
			return i, ','
		}
		return i + 1, 0
	default:
		return i + 1, 0
	}
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// clauseEnd scans forward from start and returns the offset just past the
// '.' that terminates the clause starting there.
func clauseEnd(src string, start int) (int, bool) {
	depth := 0
	for i := start; i < len(src); {
		next, term := scanStep(src, i, &depth)
		if term == '.' {
			return i + 1, true
		}
		if term != 0 {
			// A depth-0 comma separates body literals; step past it.
			next = i + 1
		}
		i = next
	}
	return 0, false
}

// deleteClauseFix builds a fix that deletes a whole clause, including the
// trailing whitespace that separates it from the next one.
func (ctx *context) deleteClauseFix(c *lang.Clause, msg string) (SuggestedFix, bool) {
	start, ok := ctx.offsetOf(c.Pos)
	if !ok {
		return SuggestedFix{}, false
	}
	end, ok := clauseEnd(ctx.opts.Source, start)
	if !ok {
		return SuggestedFix{}, false
	}
	src := ctx.opts.Source
	for end < len(src) && isSpaceByte(src[end]) {
		end++
	}
	return SuggestedFix{Message: msg, Edits: []TextEdit{{Span: Span{start, end}}}}, true
}

// literalExtent locates the source span of body literal i of clause c,
// including a 'not' prefix when the literal is negated. It returns the
// start offset, the end offset (exclusive, before the separator) and the
// separator byte (',' between conditions, '.' after the last).
func (ctx *context) literalExtent(c *lang.Clause, i int) (start, end int, sep byte, ok bool) {
	l := c.Body[i]
	src := ctx.opts.Source
	start, ok = ctx.offsetOf(l.Atom.Pos)
	if !ok {
		return 0, 0, 0, false
	}
	if l.Neg {
		// The atom is preceded by "not " or wrapped as "not(...)"; back up
		// over whitespace and at most one '(' to the keyword.
		j := start
		for j > 0 && isSpaceByte(src[j-1]) {
			j--
		}
		if j > 0 && src[j-1] == '(' {
			j--
			for j > 0 && isSpaceByte(src[j-1]) {
				j--
			}
		}
		if j < 3 || src[j-3:j] != "not" || (j > 3 && isIdentByte(src[j-4])) {
			return 0, 0, 0, false
		}
		start = j - 3
	}
	depth := 0
	for k := start; k < len(src); {
		next, term := scanStep(src, k, &depth)
		if term != 0 {
			return start, k, term, true
		}
		k = next
	}
	return 0, 0, 0, false
}

// deleteLiteralFix builds a fix that deletes body literal i of clause c,
// together with the comma that joins it to its neighbours. A rule must keep
// at least one condition, so no fix is offered for a sole literal.
func (ctx *context) deleteLiteralFix(c *lang.Clause, i int, msg string) (SuggestedFix, bool) {
	if len(c.Body) < 2 || !ctx.hasSource() {
		return SuggestedFix{}, false
	}
	src := ctx.opts.Source
	start, end, sep, ok := ctx.literalExtent(c, i)
	if !ok {
		return SuggestedFix{}, false
	}
	if i < len(c.Body)-1 {
		if sep != ',' {
			return SuggestedFix{}, false
		}
		del := end + 1
		for del < len(src) && isSpaceByte(src[del]) {
			del++
		}
		return SuggestedFix{Message: msg, Edits: []TextEdit{{Span: Span{start, del}}}}, true
	}
	if sep != '.' {
		return SuggestedFix{}, false
	}
	// Last literal: delete the preceding comma instead, keep the '.'.
	j := start
	for j > 0 && isSpaceByte(src[j-1]) {
		j--
	}
	if j == 0 || src[j-1] != ',' {
		return SuggestedFix{}, false
	}
	return SuggestedFix{Message: msg, Edits: []TextEdit{{Span: Span{j - 1, end}}}}, true
}

// isPlainName reports whether a name is a plain (unquoted) atom spelling.
func isPlainName(name string) bool {
	if name == "" || !unicode.IsLower(rune(name[0])) {
		return false
	}
	for i := 0; i < len(name); i++ {
		if !isIdentByte(name[i]) {
			return false
		}
	}
	return true
}

// renameFix builds a fix replacing every occurrence of the atom or functor
// name in the description with to. The fix is all-or-nothing: when any
// occurrence cannot be located exactly in the source, no fix is offered.
func (ctx *context) renameFix(name, to, msg string) (SuggestedFix, bool) {
	if !ctx.hasSource() || name == to || !isPlainName(name) || !isPlainName(to) {
		return SuggestedFix{}, false
	}
	src := ctx.opts.Source
	var edits []TextEdit
	seen := map[Span]bool{}
	ok := true
	addTerm := func(t *lang.Term) {
		t.Walk(func(n *lang.Term) bool {
			if !ok || (n.Kind != lang.Atom && n.Kind != lang.Compound) || n.Functor != name {
				return ok
			}
			off, found := ctx.offsetOf(n.Pos)
			if !found || !strings.HasPrefix(src[off:], name) ||
				(off > 0 && isIdentByte(src[off-1])) ||
				(off+len(name) < len(src) && isIdentByte(src[off+len(name)])) {
				ok = false
				return false
			}
			sp := Span{off, off + len(name)}
			if !seen[sp] {
				seen[sp] = true
				edits = append(edits, TextEdit{Span: sp, NewText: to})
			}
			return true
		})
	}
	for _, c := range ctx.ed.Clauses {
		addTerm(c.Head)
		for _, l := range c.Body {
			addTerm(l.Atom)
		}
	}
	if !ok || len(edits) == 0 {
		return SuggestedFix{}, false
	}
	return SuggestedFix{Message: msg, Edits: edits}, true
}

func overlaps(a, b Span) bool {
	if a.Start == a.End && b.Start == b.End {
		return a.Start == b.Start
	}
	return a.Start < b.End && b.Start < a.End
}

// ApplyFixes applies suggested fixes to src, in the given order. A fix is
// accepted only when each of its edits either exactly duplicates an
// already-accepted edit or overlaps none of them; conflicting fixes are
// skipped deterministically. It returns the edited source and the number of
// fixes applied.
func ApplyFixes(src string, fixes []SuggestedFix) (string, int) {
	var accepted []TextEdit
	applied := 0
	for _, f := range fixes {
		if len(f.Edits) == 0 {
			continue
		}
		candidate := accepted
		ok := true
		for _, e := range f.Edits {
			if e.Span.Start < 0 || e.Span.End < e.Span.Start || e.Span.End > len(src) {
				ok = false
				break
			}
			dup, conflict := false, false
			for _, a := range candidate {
				if a == e {
					dup = true
					break
				}
				if overlaps(a.Span, e.Span) {
					conflict = true
					break
				}
			}
			if conflict {
				ok = false
				break
			}
			if !dup {
				candidate = append(candidate, e)
			}
		}
		if !ok {
			continue
		}
		accepted = candidate
		applied++
	}
	if applied == 0 {
		return src, 0
	}
	sort.Slice(accepted, func(i, j int) bool { return accepted[i].Span.Start < accepted[j].Span.Start })
	var b strings.Builder
	prev := 0
	for _, e := range accepted {
		b.WriteString(src[prev:e.Span.Start])
		b.WriteString(e.NewText)
		prev = e.Span.End
	}
	b.WriteString(src[prev:])
	return b.String(), applied
}

// Fixes collects every suggested fix of the report, in report order.
func (r *Report) Fixes() []SuggestedFix {
	var out []SuggestedFix
	for _, d := range r.Diagnostics {
		out = append(out, d.SuggestedFixes...)
	}
	return out
}

// DefaultFixBudget bounds the analyze → apply → re-analyze rounds of Fix.
const DefaultFixBudget = 3

// FixRound records one iteration of the fixpoint driver.
type FixRound struct {
	Before  int // diagnostics before the round
	Applied int // fixes applied
	After   int // diagnostics after re-analysis
}

// FixResult is the outcome of Fix: the final source, the event description
// parsed from it (nil when it does not parse), its report, and the per-round
// trace.
type FixResult struct {
	Source string
	ED     *lang.EventDescription
	Report *Report
	Rounds []FixRound
}

// Fixpoint reports whether the driver stopped because no further fix
// applies, rather than because the budget ran out.
func (r *FixResult) Fixpoint() bool { return len(r.Report.Fixes()) == 0 }

// Fix drives suggested fixes to a fixpoint: analyze src, apply every
// non-conflicting fix, re-parse and re-analyze, and repeat until no fix
// applies, the budget is exhausted (DefaultFixBudget when budget <= 0), or
// a round fails to strictly decrease the diagnostic count — such a round is
// discarded, so the diagnostic count decreases strictly across accepted
// rounds.
func Fix(src string, opts Options, budget int) *FixResult {
	if budget <= 0 {
		budget = DefaultFixBudget
	}
	ed, rep := analyzeSource(src, opts)
	res := &FixResult{Source: src, ED: ed, Report: rep}
	for round := 0; round < budget; round++ {
		fixes := rep.Fixes()
		if len(fixes) == 0 {
			break
		}
		next, applied := ApplyFixes(src, fixes)
		if applied == 0 {
			break
		}
		ned, nrep := analyzeSource(next, opts)
		if len(nrep.Diagnostics) >= len(rep.Diagnostics) {
			break
		}
		res.Rounds = append(res.Rounds, FixRound{
			Before: len(rep.Diagnostics), Applied: applied, After: len(nrep.Diagnostics)})
		src, rep = next, nrep
		res.Source, res.ED, res.Report = src, ned, rep
	}
	return res
}

// Diff renders a minimal line-based unified-style diff between two sources,
// used by cmd/rteclint -diff. It is a simple LCS diff, adequate for the
// small event descriptions this repository handles.
func Diff(name, before, after string) string {
	if before == after {
		return ""
	}
	a := strings.Split(before, "\n")
	b := strings.Split(after, "\n")
	// LCS table.
	n, m := len(a), len(b)
	lcs := make([][]int, n+1)
	for i := range lcs {
		lcs[i] = make([]int, m+1)
	}
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			if a[i] == b[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else if lcs[i+1][j] >= lcs[i][j+1] {
				lcs[i][j] = lcs[i+1][j]
			} else {
				lcs[i][j] = lcs[i][j+1]
			}
		}
	}
	var out strings.Builder
	fmt.Fprintf(&out, "--- %s\n+++ %s (fixed)\n", name, name)
	i, j := 0, 0
	for i < n || j < m {
		switch {
		case i < n && j < m && a[i] == b[j]:
			fmt.Fprintf(&out, " %s\n", a[i])
			i++
			j++
		case j < m && (i == n || lcs[i][j+1] >= lcs[i+1][j]):
			fmt.Fprintf(&out, "+%s\n", b[j])
			j++
		default:
			fmt.Fprintf(&out, "-%s\n", a[i])
			i++
		}
	}
	return out.String()
}
