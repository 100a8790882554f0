// Package correct implements the manual error-correction step of the
// paper's second experiment (Section 5.2): the "minimum required changes"
// that make an LLM-generated event description compatible with RTEC —
// renaming wrongly-spelled constants and predicates back to the domain
// vocabulary (e.g. 'trawlingArea' to 'fishing'), exactly the first error
// category of the qualitative analysis. Structural errors (wrong fluent
// kind, undefined conditions, operator confusion) are deliberately left in
// place: the paper's corrected event descriptions GPT-4o▲, o1■ and Llama-3■
// retain them, which is why their similarity increase in Figure 2b is
// small.
//
// Both correctors run on top of the analyzer's suggested-fix layer: the
// generated clauses are rendered into one source text with per-activity
// marker comments, linted with a rename oracle installed, and the resulting
// text edits are applied and re-parsed. Apply restricts itself to the
// rename fixes of R002/R010 (the paper's manual step); AutoFix drives every
// suggested fix to a fixpoint.
package correct

import (
	"fmt"
	"sort"
	"strings"

	"rtecgen/internal/analysis"
	"rtecgen/internal/lang"
	"rtecgen/internal/parser"
	"rtecgen/internal/prompt"
	"rtecgen/internal/telemetry"
)

// Change records one applied correction. Code is the analyzer diagnostic
// that flagged the name (R002 undefined-reference or R010 unknown-name).
type Change struct {
	From, To string
	Reason   string
	Code     string
}

func (c Change) String() string {
	return fmt.Sprintf("%s -> %s (%s)", c.From, c.To, c.Reason)
}

// Renamer builds the analyzer's rename oracle from the domain vocabulary:
// documented aliases map to their canonical name, and otherwise the closest
// vocabulary name within edit distance 2 wins. It is handed to
// analysis.Options.Rename so that R002/R010 diagnostics carry rename fixes.
func Renamer(d *prompt.Domain) func(name string) (string, string, bool) {
	return renamer(d, nil)
}

// occurrence records how a name occurs in the generated clauses, so the
// edit-distance search looks in the matching name pool.
type occurrence struct {
	compound bool
}

// renamer never corrects a reserved word of the dialect, and otherwise
// consults only the domain's own vocabulary (the material prompts E and T
// taught the model).
func renamer(d *prompt.Domain, occ map[string]occurrence) func(string) (string, string, bool) {
	return func(name string) (string, string, bool) {
		if lang.Reserved(name) != lang.NotReserved {
			return "", "", false
		}
		if canonical, ok := d.Canonical(name); ok {
			return canonical, "documented alias", true
		}
		compound, known := false, false
		if occ != nil {
			o, ok := occ[name]
			compound, known = o.compound, ok
		}
		if known {
			if to, ok := closestName(name, d, compound); ok {
				return to, "edit distance", true
			}
			return "", "", false
		}
		// No occurrence information (e.g. the rteclint CLI): try both pools,
		// preferring the closer match and predicates on a tie.
		toP, okP := closestName(name, d, true)
		toC, okC := closestName(name, d, false)
		switch {
		case okP && okC:
			if editDistance(name, toC) < editDistance(name, toP) {
				return toC, "edit distance", true
			}
			return toP, "edit distance", true
		case okP:
			return toP, "edit distance", true
		case okC:
			return toC, "edit distance", true
		}
		return "", "", false
	}
}

func occurrences(gen *prompt.GeneratedED) map[string]occurrence {
	occ := map[string]occurrence{}
	for _, r := range gen.Results {
		for _, c := range r.Clauses {
			terms := append([]*lang.Term{c.Head}, literalAtoms(c.Body)...)
			for _, t := range terms {
				t.Walk(func(n *lang.Term) bool {
					switch n.Kind {
					case lang.Compound:
						occ[n.Functor] = occurrence{compound: true}
					case lang.Atom:
						if _, ok := occ[n.Functor]; !ok {
							occ[n.Functor] = occurrence{}
						}
					}
					return true
				})
			}
		}
	}
	return occ
}

// activityMarker prefixes the comment line that separates activities in the
// combined source rendered by Combined. The key follows, then " ---".
const activityMarker = "% --- activity:"

// Combined renders the parsed per-activity clauses as one source text, each
// activity introduced by a marker comment, so analyzer positions — and the
// diagnostics and fixes built from them — can be attributed back to the
// activity that produced each clause.
func Combined(gen *prompt.GeneratedED) string {
	var b strings.Builder
	var text []byte
	for _, r := range gen.Results {
		fmt.Fprintf(&b, "%s%s ---\n", activityMarker, r.Request.Key)
		for _, c := range r.Clauses {
			text = c.AppendText(text[:0])
			b.Write(text)
			b.WriteString("\n\n")
		}
	}
	return b.String()
}

// markerRanges scans a combined source for activity markers and returns the
// 1-based first and last line of each activity's section, in source order.
type markerRange struct {
	key         string
	first, last int // 1-based line range, inclusive
}

func markerRanges(src string) []markerRange {
	var out []markerRange
	lines := strings.Split(src, "\n")
	for i, line := range lines {
		rest, ok := strings.CutPrefix(strings.TrimSpace(line), activityMarker)
		if !ok {
			continue
		}
		key := strings.TrimSpace(strings.TrimSuffix(rest, "---"))
		if len(out) > 0 {
			out[len(out)-1].last = i // line i is 1-based i+1; previous section ends before it
		}
		out = append(out, markerRange{key: key, first: i + 1, last: len(lines)})
	}
	return out
}

func activityAt(ranges []markerRange, line int) string {
	for _, r := range ranges {
		if line >= r.first && line <= r.last {
			return r.key
		}
	}
	return ""
}

// resplit parses a fixed combined source and rebuilds the per-activity
// results of gen from it (see split).
func resplit(gen *prompt.GeneratedED, src string) (*prompt.GeneratedED, error) {
	ed, err := parser.ParseEventDescription(src)
	if err != nil {
		return nil, err
	}
	return split(gen, ed, src), nil
}

// split rebuilds the per-activity results of gen from ed, the event
// description parsed from the combined source src, assigning clauses to
// activities by the marker sections their positions fall in. Raw responses,
// parse errors and degradation flags are carried over unchanged.
func split(gen *prompt.GeneratedED, ed *lang.EventDescription, src string) *prompt.GeneratedED {
	ranges := markerRanges(src)
	byKey := map[string][]*lang.Clause{}
	for _, c := range ed.Clauses {
		byKey[activityAt(ranges, int(c.Pos.Line))] = append(byKey[activityAt(ranges, int(c.Pos.Line))], c)
	}
	out := &prompt.GeneratedED{ModelName: gen.ModelName, Scheme: gen.Scheme}
	for _, r := range gen.Results {
		nr := prompt.ActivityResult{Request: r.Request, Raw: r.Raw,
			Errors: append([]string(nil), r.Errors...)}
		nr.Clauses = byKey[r.Request.Key]
		out.Results = append(out.Results, nr)
	}
	return out
}

// lintOptions are the analyzer options both correctors use on the combined
// source: domain vocabulary, the requested activities as roots, and the
// rename oracle.
func lintOptions(gen *prompt.GeneratedED, domain *prompt.Domain, rename func(string) (string, string, bool)) analysis.Options {
	roots := map[string]bool{}
	for _, r := range gen.Results {
		roots[r.Request.Name] = true
	}
	return analysis.Options{
		Vocabulary: domain.KnownNames(),
		Roots:      roots,
		Rename:     rename,
	}
}

// Corrected is the outcome: the corrected per-activity results and the
// change log. Before is the analyzer report that drove the corrections
// (Gen.Lint reports on the corrected description).
type Corrected struct {
	Gen     *prompt.GeneratedED
	Changes []Change
	Before  *analysis.Report
}

// Apply corrects a generated event description, driven by the static
// analyzer of internal/analysis: every name the analyzer flags as an
// undefined reference (R002) or as outside the domain vocabulary (R010) is
// renamed to the canonical vocabulary name when a confident mapping exists
// (a documented alias, or an edit distance of at most 2). The renames are
// performed through the analyzer's suggested-fix layer: the clauses are
// rendered to source, the rename fixes attached to R002/R010 diagnostics
// are applied as text edits, and the result is re-parsed. Names the
// analyzer does not flag — RTEC syntax, vocabulary names, fluents the
// description defines itself — are never candidates, so structural errors
// such as conditions over undefined activities with no plausible
// vocabulary target survive, as in the paper. The generated ED is not
// mutated; a corrected copy is returned together with the change log.
func Apply(gen *prompt.GeneratedED, domain *prompt.Domain) *Corrected {
	return ApplyWith(nil, gen, domain)
}

// ApplyWith is Apply under a "pipeline.correct" span carrying the number of
// changes, on tel. A nil tel costs only nil checks.
func ApplyWith(tel *telemetry.Telemetry, gen *prompt.GeneratedED, domain *prompt.Domain) *Corrected {
	sp := tel.Span("pipeline.correct", telemetry.String("model", gen.Label()))
	defer sp.End()
	out := apply(gen, domain)
	sp.SetAttrs(telemetry.Int("changes", int64(len(out.Changes))))
	if len(out.Changes) > 0 {
		tel.Logger().Debug("syntactic corrections applied",
			"component", "pipeline", "model", gen.Label(), "changes", len(out.Changes))
	}
	return out
}

func apply(gen *prompt.GeneratedED, domain *prompt.Domain) *Corrected {
	rename := renamer(domain, occurrences(gen))
	src := Combined(gen)
	report := analysis.AnalyzeSource(src, lintOptions(gen, domain, rename))

	// Only the rename fixes of R002/R010 are the paper's "minimum required
	// changes"; every other suggested fix is AutoFix's business.
	renames := map[string]Change{}
	var fixes []analysis.SuggestedFix
	for _, d := range report.Diagnostics {
		if (d.Code != "R002" && d.Code != "R010") || d.Symbol == "" || len(d.SuggestedFixes) == 0 {
			continue
		}
		if _, ok := renames[d.Symbol]; ok {
			continue
		}
		to, reason, ok := rename(d.Symbol)
		if !ok {
			continue
		}
		renames[d.Symbol] = Change{From: d.Symbol, To: to, Reason: reason, Code: d.Code}
		fixes = append(fixes, d.SuggestedFixes...)
	}
	fixed, _ := analysis.ApplyFixes(src, fixes)

	ngen, err := resplit(gen, fixed)
	if err != nil {
		// A rename can never break parsing (edits replace names in place),
		// but fail safe: keep the input unchanged.
		ngen, renames = resplit0(gen), nil
	}
	out := &Corrected{Gen: ngen, Before: report}
	names := make([]string, 0, len(renames))
	for n := range renames {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		out.Changes = append(out.Changes, renames[n])
	}
	return out
}

// resplit0 deep-copies gen without changes, the failure fallback of apply.
func resplit0(gen *prompt.GeneratedED) *prompt.GeneratedED {
	out := &prompt.GeneratedED{ModelName: gen.ModelName, Scheme: gen.Scheme}
	for _, r := range gen.Results {
		nr := prompt.ActivityResult{Request: r.Request, Raw: r.Raw,
			Errors: append([]string(nil), r.Errors...)}
		for _, c := range r.Clauses {
			nr.Clauses = append(nr.Clauses, c.Clone())
		}
		out.Results = append(out.Results, nr)
	}
	return out
}

// Fixed is the outcome of AutoFix: the repaired per-activity results, the
// fixpoint trace, and the diagnostics that no fix could discharge,
// attributed to the activity whose section they fall in (the empty key
// collects diagnostics without a position).
type Fixed struct {
	Gen       *prompt.GeneratedED
	Source    string
	Rounds    []analysis.FixRound
	Report    *analysis.Report
	Remaining map[string][]analysis.Diagnostic
}

// Fixpoint reports whether autofixing stopped with no fix left to apply.
func (f *Fixed) Fixpoint() bool { return len(f.Report.Fixes()) == 0 }

// AutoFix drives every suggested fix — renames, duplicate-clause and
// redundant-condition deletions, contradictory initiations, vacuous
// thresholds — to a fixpoint over the combined source of gen, within
// analysis.DefaultFixBudget rounds. This is the machine half of the
// critique–refine loop: what remains in Report is what only the model can
// repair, and is rendered into the critique turn.
func AutoFix(gen *prompt.GeneratedED, domain *prompt.Domain) *Fixed {
	rename := renamer(domain, occurrences(gen))
	opts := lintOptions(gen, domain, rename)
	opts.Sorts = domain.ArgSorts()
	res := analysis.Fix(Combined(gen), opts, analysis.DefaultFixBudget)

	out := &Fixed{Source: res.Source, Rounds: res.Rounds, Report: res.Report,
		Remaining: map[string][]analysis.Diagnostic{}}
	ranges := markerRanges(res.Source)
	for _, d := range res.Report.Diagnostics {
		key := ""
		if d.Pos.IsValid() {
			key = activityAt(ranges, int(d.Pos.Line))
		}
		out.Remaining[key] = append(out.Remaining[key], d)
	}
	if res.ED != nil {
		out.Gen = split(gen, res.ED, res.Source)
	} else {
		out.Gen = resplit0(gen)
	}
	return out
}

func literalAtoms(body []lang.Literal) []*lang.Term {
	out := make([]*lang.Term, len(body))
	for i, l := range body {
		out[i] = l.Atom
	}
	return out
}

// closestName finds a vocabulary name within edit distance 2 (and at least
// half the name's length in common), preferring predicates for compound
// occurrences and constants otherwise.
func closestName(name string, d *prompt.Domain, compound bool) (string, bool) {
	pool := d.ConstantNames()
	if compound {
		pool = d.Predicates()
	}
	best, bestDist := "", 3
	cands := make([]string, 0, len(pool))
	for c := range pool {
		cands = append(cands, c)
	}
	sort.Strings(cands)
	for _, c := range cands {
		d := editDistance(name, c)
		if d < bestDist {
			best, bestDist = c, d
		}
	}
	if best == "" || bestDist > 2 || bestDist*2 >= len(name) {
		return "", false
	}
	return best, true
}

// editDistance is the Levenshtein distance.
func editDistance(a, b string) int {
	if a == b {
		return 0
	}
	la, lb := len(a), len(b)
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[lb]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// Summary renders the change log.
func (c *Corrected) Summary() string {
	if len(c.Changes) == 0 {
		return "no changes required"
	}
	parts := make([]string, len(c.Changes))
	for i, ch := range c.Changes {
		parts[i] = ch.String()
	}
	return strings.Join(parts, "; ")
}
