package eval

import (
	"fmt"

	"rtecgen/internal/correct"
	"rtecgen/internal/lang"
	"rtecgen/internal/maritime"
	"rtecgen/internal/prompt"
	"rtecgen/internal/telemetry"
)

// After2a holds the figures that follow Figure 2a, each in the order of the
// rows it was computed from.
type After2a struct {
	Corrected []CorrectedRow // Figure 2b
	Accuracy  []AccuracyRow  // Figure 2c: nil without a testbed
	Refined   []RefineRow    // the refine figure
}

// RunAfter2a computes the figures that follow Figure 2a as one ordered job
// list on one pool of at most workers jobs (<= 0 means GOMAXPROCS; 1 is
// strictly sequential). The list holds a critique–refine chain per row of
// refine (continuing the row's generation, FigureRefine's job), then a chain
// per row of top that corrects the row and re-scores it (Figure 2b's job)
// and, with a testbed, evaluates the corrected event description on it
// (Figure 2c's job). The refine chains come first because they are the
// longest jobs; with no phase barrier between the figures, no worker waits
// for a figure's last job while another figure has work left. A nil tb
// leaves out Figure 2c and the refine figure's F1 column.
//
// Every job writes its results at its own index, so the figures are the
// same at any worker count. Every refine row's model is looked up before any
// job starts; after the pool, the first failed correction (in row order) is
// the error, then the first failed evaluation, then the first failed chain.
func RunAfter2a(tel *telemetry.Telemetry, models []prompt.Model, refine, top []Row, budget int, tb *Testbed, workers int) (After2a, error) {
	chain, err := refineModels(models, refine)
	if err != nil {
		return After2a{}, err
	}
	gold, domain := maritime.GoldED(), maritime.PromptDomain()
	out := After2a{Refined: make([]RefineRow, len(refine)), Corrected: make([]CorrectedRow, len(top))}
	if tb != nil {
		out.Accuracy = make([]AccuracyRow, len(top))
	}
	refineErrs, correctErrs, evalErrs := make([]error, len(refine)), make([]error, len(top)), make([]error, len(top))
	forEachOrdered(workers, len(refine)+len(top), func(i int) {
		if i < len(refine) {
			out.Refined[i], refineErrs[i] = RefineWith(tel, chain[i], refine[i].Gen, budget, tb)
			return
		}
		i -= len(refine)
		out.Corrected[i], correctErrs[i] = correctRow(tel, gold, domain, top[i])
		if correctErrs[i] == nil && tb != nil {
			out.Accuracy[i], evalErrs[i] = tb.evaluateCorrected(out.Corrected[i])
		}
	})
	for _, errs := range [][]error{correctErrs, evalErrs, refineErrs} {
		for _, err := range errs {
			if err != nil {
				return After2a{}, err
			}
		}
	}
	return out, nil
}

// refineModels looks up the model of every row to refine, and checks that
// the row has a generation whose conversation a chain can continue.
func refineModels(models []prompt.Model, rows []Row) ([]prompt.Model, error) {
	byName := map[string]prompt.Model{}
	for _, m := range models {
		byName[m.Name()] = m
	}
	chain := make([]prompt.Model, len(rows))
	for i, r := range rows {
		m, ok := byName[r.Model]
		if !ok {
			return nil, fmt.Errorf("refine: no model named %q", r.Model)
		}
		if r.Gen == nil {
			return nil, fmt.Errorf("refine: %s has no generation to refine", r.Label())
		}
		chain[i] = m
	}
	return chain, nil
}

// correctRow is Figure 2b's job: the minimal syntactic corrections of a row's
// event description, re-scored against the gold standard.
func correctRow(tel *telemetry.Telemetry, gold *lang.EventDescription, domain *prompt.Domain, row Row) (CorrectedRow, error) {
	cor := correct.ApplyWith(tel, row.Gen, domain)
	scored, err := ScoreWith(tel, gold, cor.Gen)
	return CorrectedRow{Row: scored, Corrected: cor}, err
}

// evaluateCorrected is Figure 2c's job: the predictive accuracy of a
// corrected event description on the testbed, under the row's label.
func (tb *Testbed) evaluateCorrected(cr CorrectedRow) (AccuracyRow, error) {
	row, err := tb.Evaluate(cr.Corrected.Gen)
	if err != nil {
		return AccuracyRow{}, fmt.Errorf("eval: %s: %w", cr.Label(), err)
	}
	row.Label = cr.Label()
	return row, nil
}
