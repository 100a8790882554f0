package eval

import (
	"fmt"

	"rtecgen/internal/analysis"
	"rtecgen/internal/correct"
	"rtecgen/internal/maritime"
	"rtecgen/internal/prompt"
	"rtecgen/internal/telemetry"
)

// DefaultRefineBudget caps the critique–refine loop: the initial generation
// plus at most this many rounds of autofixing and critiquing.
const DefaultRefineBudget = 3

// RefineRound records one round of the critique–refine loop. Each round
// autofixes the current event description, scores it, and — unless the
// round is final — renders the surviving diagnostics into critique turns.
type RefineRound struct {
	Round     int      `json:"round"`     // 1-based
	FixRounds int      `json:"fixRounds"` // autofix fixpoint rounds used
	Fixed     int      `json:"fixed"`     // fixes applied mechanically
	Remaining int      `json:"remaining"` // warning+ diagnostics left after autofix
	Overall   float64  `json:"overall"`   // tree-similarity of the whole ED vs gold
	Average   float64  `json:"average"`   // mean of per-activity similarities and Overall
	F1        float64  `json:"f1"`        // testbed F1 average; -1 when no testbed was given
	Critiqued []string `json:"critiqued"` // activity keys critiqued to produce the next round
}

// RefineRow is the refine trace of one model under one prompting scheme.
type RefineRow struct {
	Model  string
	Scheme prompt.Scheme
	Rounds []RefineRound
	Final  *prompt.GeneratedED // the post-autofix ED of the last round
}

// Label renders the paper's notation (o1□, GPT-4o△, ...).
func (r RefineRow) Label() string { return r.Model + r.Scheme.Suffix() }

// RefineWith runs the critique–refine loop on gen, a generation of model
// over the maritime curriculum, with observability on tel (may be nil) and an
// optional recognition testbed for per-round F1 scores. The loop continues the
// conversation gen was generated in (its transcript), so each critique sees
// the teaching prompts, every prompt G and the critiques so far — and gen
// itself is left untouched. A generation without a transcript is refused:
// there is no conversation to continue.
//
// Per round: the per-activity results are combined and autofixed to a
// fixpoint (machine repairs: renames, deletions of contradictory,
// duplicated, redundant or vacuous clauses and conditions); the fixed ED is
// scored against the gold standard; then the diagnostics that no fix could
// discharge are sent back per activity as prompt C, and the model's revised
// answers replace the old ones. The loop stops when no warning- or
// error-level diagnostic survives autofixing, when no surviving diagnostic
// can be attributed to an activity, or when the round budget is spent.
func RefineWith(tel *telemetry.Telemetry, model prompt.Model, gen *prompt.GeneratedED, budget int, tb *Testbed) (RefineRow, error) {
	if budget <= 0 {
		budget = DefaultRefineBudget
	}
	domain := maritime.PromptDomain()
	gold := goldED()

	root := tel.Span("pipeline.refine",
		telemetry.String("model", gen.ModelName), telemetry.String("scheme", gen.Scheme.String()),
		telemetry.Int("budget", int64(budget)))
	defer root.End()

	s, err := gen.Resume(tel, root, model, domain)
	if err != nil {
		return RefineRow{}, fmt.Errorf("refine: %w", err)
	}
	results := append([]prompt.ActivityResult(nil), gen.Results...)

	row := RefineRow{Model: gen.ModelName, Scheme: gen.Scheme}
	for round := 1; round <= budget; round++ {
		cur := &prompt.GeneratedED{ModelName: gen.ModelName, Scheme: gen.Scheme, Results: results}
		fx := correct.AutoFix(cur, domain)
		sim, err := ScoreWith(tel, gold, fx.Gen)
		if err != nil {
			return RefineRow{}, fmt.Errorf("refine %s round %d: %w", gen.Label(), round, err)
		}
		rr := RefineRound{
			Round: round, FixRounds: len(fx.Rounds),
			Overall: sim.Overall, Average: sim.Average(), F1: -1,
		}
		for _, fr := range fx.Rounds {
			rr.Fixed += fr.Applied
		}
		// Diagnostics that survive autofixing at warning level or above are
		// the model's to repair; only those attributable to an activity can
		// be critiqued.
		critique := map[string][]analysis.Diagnostic{}
		for key, ds := range fx.Remaining {
			for _, d := range ds {
				if d.Severity < analysis.Warning {
					continue
				}
				rr.Remaining++
				if key != "" {
					critique[key] = append(critique[key], d)
				}
			}
		}
		if tb != nil {
			acc, err := tb.Evaluate(fx.Gen)
			if err != nil {
				return RefineRow{}, fmt.Errorf("refine %s round %d: %w", gen.Label(), round, err)
			}
			rr.F1 = acc.Average()
		}
		row.Final = fx.Gen
		if rr.Remaining > 0 && len(critique) > 0 && round < budget {
			for i, res := range results {
				ds, ok := critique[res.Request.Key]
				if !ok {
					continue
				}
				raw, err := s.Critique(res.Request, ds)
				if err != nil {
					return RefineRow{}, fmt.Errorf("refine %s critique %s: %w", gen.Label(), res.Request.Key, err)
				}
				clauses, errs := prompt.ParseResponse(raw)
				results[i] = prompt.ActivityResult{Request: res.Request, Raw: raw, Clauses: clauses, Errors: errs}
				rr.Critiqued = append(rr.Critiqued, res.Request.Key)
			}
		}
		row.Rounds = append(row.Rounds, rr)
		if len(rr.Critiqued) == 0 {
			break
		}
	}
	return row, nil
}

// FigureRefine runs the critique–refine loop on every row of best — each
// model's generation under its best prompting scheme, per the Figure 2a
// ranking — continuing the conversation of the row's Gen, and returns the
// refine traces in the same order. A nil tb skips the F1 column. The chains
// are independent — each owns its session and builds its own engines — so
// with a testbed they run concurrently, bounded by its AccuracyConfig.Workers;
// without one they run one after another. It is RunAfter2a with the refine
// chains alone.
func FigureRefine(tel *telemetry.Telemetry, models []prompt.Model, best []Row, budget int, tb *Testbed) ([]RefineRow, error) {
	workers := 1
	if tb != nil {
		workers = tb.cfg.Workers
	}
	after, err := RunAfter2a(tel, models, best, nil, budget, tb, workers)
	return after.Refined, err
}
