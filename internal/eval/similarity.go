// Package eval is the experiment harness: it regenerates every figure of
// the paper's evaluation (Section 5) — the similarity of LLM-generated
// event descriptions (Figure 2a), the similarity after minimal syntactic
// correction (Figure 2b), and the predictive accuracy of the corrected
// descriptions on composite event recognition (Figure 2c) — plus the
// automated version of the qualitative error assessment.
package eval

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"rtecgen/internal/correct"
	"rtecgen/internal/lang"
	"rtecgen/internal/maritime"
	"rtecgen/internal/prompt"
	"rtecgen/internal/similarity"
	"rtecgen/internal/telemetry"
)

// ActivityKeys are the Figure 2 x-axis labels, in order; "all" is the
// average bar.
var ActivityKeys = []string{"h", "aM", "tr", "tu", "p", "l", "s", "d"}

// Row is one event description's scores: per-activity similarity and the
// whole-description similarity ("all").
type Row struct {
	Model       string
	Scheme      prompt.Scheme
	PerActivity map[string]float64
	Overall     float64
	Gen         *prompt.GeneratedED
}

// Label renders the paper's notation (o1□, GPT-4o△, ...).
func (r Row) Label() string { return r.Model + r.Scheme.Suffix() }

// Average returns the mean of the per-activity similarities and the overall
// score; it is the ranking criterion for "the prompting scheme with the
// highest similarity" and "the three event descriptions with the highest
// similarity values". (The "all" bar of Figure 2a itself is Overall.)
func (r Row) Average() float64 {
	sum, n := r.Overall, 1
	for _, k := range ActivityKeys {
		sum += r.PerActivity[k]
		n++
	}
	return sum / float64(n)
}

// GenerateAll runs the prompting pipeline for every model and scheme. Any
// pipeline failure aborts.
func GenerateAll(models []prompt.Model) ([]*prompt.GeneratedED, error) {
	return GenerateAllWith(nil, models, 0)
}

// GenerateAllWith is GenerateAll with observability on tel and at most
// workers sessions running concurrently (workers <= 0 means GOMAXPROCS;
// workers == 1 is strictly sequential). Every session is independent — its
// own model/scheme pair, its own conversation — and results are collected
// in model×scheme order, so the generated event descriptions and the
// figures derived from them are identical at any worker count. The first
// failed pipeline, in that order, is the error.
func GenerateAllWith(tel *telemetry.Telemetry, models []prompt.Model, workers int) ([]*prompt.GeneratedED, error) {
	domain := maritime.PromptDomain()
	curriculum := maritime.CurriculumRequests()
	schemes := []prompt.Scheme{prompt.FewShot, prompt.ChainOfThought}

	type unit struct {
		model  prompt.Model
		scheme prompt.Scheme
	}
	units := make([]unit, 0, len(models)*len(schemes))
	for _, m := range models {
		for _, scheme := range schemes {
			units = append(units, unit{model: m, scheme: scheme})
		}
	}
	gens := make([]*prompt.GeneratedED, len(units))
	errs := make([]error, len(units))
	forEachOrdered(workers, len(units), func(i int) {
		gens[i], errs[i] = prompt.RunPipelineWith(tel, units[i].model, units[i].scheme, domain, curriculum)
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("eval: %s %s: %w", units[i].model.Name(), units[i].scheme, err)
		}
	}
	return gens, nil
}

// Score computes the similarity row of one generated event description
// against the gold standard: per composite activity, the rules of the
// activity's primary fluent are compared (Definition 4.14 restricted to
// that rule set); the "all" score compares the full rule sets.
func Score(gold *lang.EventDescription, gen *prompt.GeneratedED) (Row, error) {
	return ScoreWith(nil, gold, gen)
}

// ScoreWith is Score under a "pipeline.score" span on tel.
func ScoreWith(tel *telemetry.Telemetry, gold *lang.EventDescription, gen *prompt.GeneratedED) (Row, error) {
	sp := tel.Span("pipeline.score", telemetry.String("model", gen.Label()))
	defer sp.End()
	row := Row{
		Model:       gen.ModelName,
		Scheme:      gen.Scheme,
		PerActivity: map[string]float64{},
		Gen:         gen,
	}
	ref := referenceFor(gold)
	for _, act := range maritime.CompositeActivities() {
		goldRules := primaryRules(ref.Rules(), act.PrimaryName())
		var genRules []*lang.Clause
		if res, ok := gen.ResultFor(act.Key); ok {
			genRules = primaryRules(res.Clauses, generatedPrimaryName(res, act))
		}
		d, err := ref.Distance(goldRules, genRules)
		if err != nil {
			return Row{}, err
		}
		row.PerActivity[act.Key] = 1 - d
	}
	d, err := ref.Distance(ref.Rules(), gen.ED().Rules())
	if err != nil {
		return Row{}, err
	}
	row.Overall = 1 - d
	return row, nil
}

// references holds one prepared similarity.Reference per distinct gold
// standard, keyed by the text of its temporal rules, so every scoring of the
// process — Figure 2a's, Figure 2b's, each refine round's — reads and fills
// one table of rule-pair distances, and a different gold is never answered
// from another's. Each Reference owns a copy of its rules: the caller stays
// free to modify the event description it passed.
var references struct {
	sync.Mutex
	byText map[string]*similarity.Reference
}

func referenceFor(gold *lang.EventDescription) *similarity.Reference {
	rules := gold.Rules()
	var key strings.Builder
	for _, c := range rules {
		key.WriteString(c.String())
		key.WriteByte('\n')
	}
	references.Lock()
	defer references.Unlock()
	ref, ok := references.byText[key.String()]
	if !ok {
		own := make([]*lang.Clause, len(rules))
		for i, c := range rules {
			own[i] = c.Clone()
		}
		ref = similarity.NewReference(own)
		if references.byText == nil {
			references.byText = map[string]*similarity.Reference{}
		}
		references.byText[key.String()] = ref
	}
	return ref
}

// primaryRules selects the rules whose head fluent functor matches.
func primaryRules(rules []*lang.Clause, functor string) []*lang.Clause {
	var out []*lang.Clause
	for _, c := range rules {
		if _, fl := c.HeadFVP(); fl != nil && fl.Functor == functor {
			out = append(out, c)
		}
	}
	return out
}

// generatedPrimaryName determines the top-level fluent of a generated
// activity result: the defined fluent that no other rule of the same result
// references in its body; ties are broken in favour of the name closest to
// the activity's own name, then by definition order (last wins, since
// support fluents are produced first).
func generatedPrimaryName(res prompt.ActivityResult, act maritime.Activity) string {
	var order []string
	defined := map[string]bool{}
	referenced := map[string]bool{}
	for _, c := range res.Clauses {
		if _, fl := c.HeadFVP(); fl != nil {
			if !defined[fl.Functor] {
				defined[fl.Functor] = true
				order = append(order, fl.Functor)
			}
		}
		for _, l := range c.Body {
			if _, fl := lang.FluentRef(l.Atom); fl != nil {
				referenced[fl.Functor] = true
			}
		}
	}
	if len(order) == 0 {
		return act.PrimaryName()
	}
	var tops []string
	for _, f := range order {
		if !referenced[f] {
			tops = append(tops, f)
		}
	}
	if len(tops) == 0 {
		tops = order
	}
	if len(tops) == 1 {
		return tops[0]
	}
	// Prefer the exact activity name, then the last defined.
	for _, f := range tops {
		if strings.EqualFold(f, act.PrimaryName()) {
			return f
		}
	}
	return tops[len(tops)-1]
}

// BestPerModel keeps, for each model, the row of the scheme with the higher
// average similarity — the selection applied in Figure 2a ("for each LLM we
// report only the prompting scheme with the highest similarity").
func BestPerModel(rows []Row) []Row {
	best := map[string]Row{}
	var order []string
	for _, r := range rows {
		cur, ok := best[r.Model]
		if !ok {
			order = append(order, r.Model)
			best[r.Model] = r
			continue
		}
		if r.Average() > cur.Average() {
			best[r.Model] = r
		}
	}
	out := make([]Row, 0, len(order))
	for _, m := range order {
		out = append(out, best[m])
	}
	return out
}

// TopN returns the n rows with the highest average similarity, in
// descending order.
func TopN(rows []Row, n int) []Row {
	sorted := append([]Row(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Average() > sorted[j].Average() })
	if n > len(sorted) {
		n = len(sorted)
	}
	return sorted[:n]
}

// Figure2aWith generates all event descriptions, scores them, and returns
// the best row per model (the published figure's contents) plus all rows.
// workers bounds how many generation pipelines, and then how many scorings,
// run concurrently (<= 0 means GOMAXPROCS; 1 is strictly sequential).
func Figure2aWith(tel *telemetry.Telemetry, models []prompt.Model, workers int) (best, all []Row, err error) {
	sp := tel.Span("eval.figure2a", telemetry.Int("models", int64(len(models))))
	defer sp.End()
	gold := maritime.GoldED()
	gens, err := GenerateAllWith(tel, models, workers)
	if err != nil {
		return nil, nil, err
	}
	all = make([]Row, len(gens))
	errs := make([]error, len(gens))
	forEachOrdered(workers, len(gens), func(i int) {
		all[i], errs[i] = ScoreWith(tel, gold, gens[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return BestPerModel(all), all, nil
}

// CorrectedRow pairs a corrected event description's scores with the
// change log that produced it.
type CorrectedRow struct {
	Row
	Corrected *correct.Corrected
}

// Label renders the paper's filled-marker notation (o1■, GPT-4o▲).
func (r CorrectedRow) Label() string {
	if r.Scheme == prompt.FewShot {
		return r.Model + "■"
	}
	return r.Model + "▲"
}

// Figure2b applies the minimal syntactic corrector to the given rows
// (the paper corrects the top three of Figure 2a) and re-scores them.
func Figure2b(rows []Row) ([]CorrectedRow, error) {
	return Figure2bWith(nil, rows, 0)
}

// Figure2bWith is Figure2b with observability threaded through correction
// and re-scoring, and a bound on how many rows are corrected and re-scored
// concurrently (workers <= 0 means GOMAXPROCS): RunAfter2a with Figure 2b's
// jobs alone.
func Figure2bWith(tel *telemetry.Telemetry, rows []Row, workers int) ([]CorrectedRow, error) {
	sp := tel.Span("eval.figure2b", telemetry.Int("rows", int64(len(rows))))
	defer sp.End()
	after, err := RunAfter2a(tel, nil, nil, rows, 0, nil, workers)
	return after.Corrected, err
}
