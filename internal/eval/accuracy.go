package eval

import (
	"fmt"
	"strings"

	"rtecgen/internal/intervals"
	"rtecgen/internal/lang"
	"rtecgen/internal/maritime"
	"rtecgen/internal/prompt"
	"rtecgen/internal/rtec"
	"rtecgen/internal/stream"
	"rtecgen/internal/telemetry"
)

// AccuracyConfig parameterises the predictive-accuracy experiment.
type AccuracyConfig struct {
	Scenario   maritime.ScenarioConfig
	Preprocess maritime.PreprocessConfig
	Window     int64 // RTEC window size in seconds
	// Telemetry, when non-nil, is handed to every engine run of the
	// testbed (per-window spans and counters) and carries the per-model
	// pipeline.accuracy spans.
	Telemetry *telemetry.Telemetry
	// Workers bounds how many recognition jobs run concurrently against
	// the shared read-only testbed — Figure2c's candidate event
	// descriptions, FigureRefine's per-model refine chains: <= 0 means
	// GOMAXPROCS, 1 is strictly sequential. It is the only level of
	// fan-out: every job builds its own engine, and that engine evaluates
	// its windows on one goroutine (rtec.Options.Workers 1), because a
	// rule-evaluation unit is cheaper than buffering its acts for an
	// ordered merge (DESIGN.md §13). The rows are identical at any count.
	Workers int
}

// DefaultAccuracyConfig returns the configuration of the reported runs.
func DefaultAccuracyConfig() AccuracyConfig {
	return AccuracyConfig{
		Scenario:   maritime.DefaultScenarioConfig(),
		Preprocess: maritime.DefaultPreprocessConfig(),
		Window:     3600,
	}
}

// F1 holds the predictive-accuracy metrics of one activity: time-point-level
// true positives, false positives and false negatives of the LLM-generated
// definition against the hand-crafted one (Section 5.2, "Performance on
// CER").
type F1 struct {
	TP, FP, FN int64
}

// Precision returns TP/(TP+FP), or 0.
func (f F1) Precision() float64 {
	if f.TP+f.FP == 0 {
		return 0
	}
	return float64(f.TP) / float64(f.TP+f.FP)
}

// Recall returns TP/(TP+FN), or 0.
func (f F1) Recall() float64 {
	if f.TP+f.FN == 0 {
		return 0
	}
	return float64(f.TP) / float64(f.TP+f.FN)
}

// Score returns the f1-score.
func (f F1) Score() float64 {
	p, r := f.Precision(), f.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// AccuracyRow is one event description's f1 per composite activity.
type AccuracyRow struct {
	Label       string
	PerActivity map[string]F1
}

// Average returns the mean f1 across the eight activities.
func (r AccuracyRow) Average() float64 {
	var sum float64
	for _, k := range ActivityKeys {
		sum += r.PerActivity[k].Score()
	}
	return sum / float64(len(ActivityKeys))
}

// Testbed is the prepared recognition environment: the scenario stream,
// planned and indexed once, its background knowledge, formatted once, and the
// gold recognition result, reused across candidate event descriptions. Every
// recognition goes through the one rtec.Prepared, so a fluent that a
// candidate defines exactly as an earlier candidate (or the gold standard)
// did is evaluated once per window.
type Testbed struct {
	cfg        AccuracyConfig
	events     stream.Stream
	prepared   *rtec.Prepared
	background []*lang.Clause
	facts      []*lang.Term
	goldRec    *rtec.Recognition
	// gold holds the intervals of each composite activity's gold fluent, by
	// entity signature (see entityIntervals): what every candidate is scored
	// against.
	gold map[string]map[string]intervals.List
}

// NewTestbed builds the scenario, preprocesses it, and runs the gold
// event description over it.
func NewTestbed(cfg AccuracyConfig) (*Testbed, error) {
	scen, err := maritime.BuildScenario(cfg.Scenario)
	if err != nil {
		return nil, err
	}
	events := maritime.Preprocess(scen.Messages, scen.Map, cfg.Preprocess)
	tb := &Testbed{
		cfg:        cfg,
		events:     events,
		background: maritime.BackgroundClauses(scen.Map, scen.Fleet, maritime.ObservedPairs(events)),
		facts:      maritime.DynamicFacts(events, scen.Fleet),
	}
	tb.prepared, err = rtec.Prepare(events, rtec.RunOptions{Window: cfg.Window})
	if err != nil {
		return nil, err
	}
	tb.goldRec, err = tb.run(maritime.GoldED(), true)
	if err != nil {
		return nil, fmt.Errorf("eval: gold recognition: %w", err)
	}
	primaries := map[string]bool{}
	for _, act := range maritime.CompositeActivities() {
		primaries[act.PrimaryName()] = true
	}
	tb.gold = entityIntervals(tb.goldRec, primaries)
	return tb, nil
}

// Events returns the preprocessed input stream.
func (tb *Testbed) Events() stream.Stream { return tb.events }

// GoldRecognition returns the gold recognition result.
func (tb *Testbed) GoldRecognition() *rtec.Recognition { return tb.goldRec }

// engine loads an event description with the testbed's background knowledge:
// the engine reads the rules' clauses and the background clauses in place,
// and modifies neither, so neither is copied.
func (tb *Testbed) engine(rules *lang.EventDescription, strict bool) (*rtec.Engine, error) {
	clauses := make([]*lang.Clause, 0, len(rules.Clauses)+len(tb.background))
	ed := &lang.EventDescription{Clauses: append(append(clauses, rules.Clauses...), tb.background...)}
	return rtec.New(ed, rtec.Options{Strict: strict, ExtraFacts: tb.facts, Workers: 1, Telemetry: tb.cfg.Telemetry})
}

// run executes an event description over the testbed's prepared stream.
func (tb *Testbed) run(rules *lang.EventDescription, strict bool) (*rtec.Recognition, error) {
	eng, err := tb.engine(rules, strict)
	if err != nil {
		return nil, err
	}
	return eng.RunPrepared(tb.prepared, nil)
}

// Evaluate runs a (corrected) generated event description on the testbed
// and scores it against the gold recognition, per composite activity.
// Detections are matched per entity (vessel or vessel pair) and per value;
// TP/FP/FN count time-points (seconds), computed via interval overlap.
//
// Only what the score reads is recognised: the engine loads the rules of the
// scored fluents and of the fluents they read, transitively (rtec.Demand),
// with every other clause of the event description. So a fluent nothing
// scored reads is never evaluated, and its load and runtime warnings are not
// logged. An event description with a condition that names its fluent only
// at run time is loaded whole.
func (tb *Testbed) Evaluate(gen *prompt.GeneratedED) (AccuracyRow, error) {
	tel := tb.cfg.Telemetry
	sp := tel.Span("pipeline.accuracy", telemetry.String("model", gen.Label()))
	defer sp.End()
	genNames, wanted := scoredFluents(gen)
	// Generated event descriptions routinely carry defects: load leniently.
	genRec, err := tb.run(demanded(gen.ED(), wanted), false)
	if err != nil {
		return AccuracyRow{}, err
	}
	return tb.score(gen.Label(), genNames, wanted, genRec), nil
}

// scoredFluents returns the functor of the primary fluent the generated event
// description defines for each composite activity, in the order of
// maritime.CompositeActivities, and the set of them: what Evaluate scores.
func scoredFluents(gen *prompt.GeneratedED) (genNames []string, wanted map[string]bool) {
	acts := maritime.CompositeActivities()
	genNames = make([]string, len(acts))
	wanted = map[string]bool{}
	for i, act := range acts {
		genNames[i] = act.PrimaryName()
		if res, ok := gen.ResultFor(act.Key); ok {
			genNames[i] = generatedPrimaryName(res, act)
		}
		wanted[genNames[i]] = true
	}
	return genNames, wanted
}

// score scores a candidate recognition against the gold one, per composite
// activity, reading the fluents scoredFluents named.
func (tb *Testbed) score(label string, genNames []string, wanted map[string]bool, genRec *rtec.Recognition) AccuracyRow {
	genByName := entityIntervals(genRec, wanted)
	row := AccuracyRow{Label: label, PerActivity: map[string]F1{}}
	for i, act := range maritime.CompositeActivities() {
		row.PerActivity[act.Key] = scoreActivity(tb.gold[act.PrimaryName()], genByName[genNames[i]],
			tb.goldRec.Start, tb.goldRec.End)
	}
	return row
}

// demanded returns the part of ed that recognising the fluents whose functor
// is in functors reads (rtec.Demand), or ed itself when that is not known
// before run time.
func demanded(ed *lang.EventDescription, functors map[string]bool) *lang.EventDescription {
	out, _ := rtec.Demand(ed, func(fl *lang.Term) bool { return functors[fl.Functor] })
	return out
}

// scoreActivity compares the recognised intervals of one activity, gold
// against generated, each keyed by entity signature, over [start, end).
func scoreActivity(goldByEntity, genByEntity map[string]intervals.List, start, end int64) F1 {
	var f F1
	for entity, goldList := range goldByEntity {
		genList := genByEntity[entity]
		f.TP += intervals.OverlapDuration(goldList, genList, start, end)
		f.FN += intervals.RelativeComplement(intervals.Clip(goldList, start, end), genList).Duration()
		f.FP += intervals.RelativeComplement(intervals.Clip(genList, start, end), goldList).Duration()
	}
	for entity, genList := range genByEntity {
		if _, ok := goldByEntity[entity]; !ok {
			f.FP += intervals.Clip(genList, start, end).Duration()
		}
	}
	return f
}

// entityIntervals collects, in one pass over the recognised FVPs, the
// intervals of each fluent functor in functors, keyed by the canonical
// entity-and-value signature (e.g. "v1|v2=true"), which is name-independent
// so renamed fluents still align.
func entityIntervals(rec *rtec.Recognition, functors map[string]bool) map[string]map[string]intervals.List {
	out := map[string]map[string]intervals.List{}
	var sig strings.Builder
	for _, key := range rec.Keys() {
		fvp := rec.FVP(key)
		fl := fvp.Args[0]
		if !fl.IsCallable() || !functors[fl.Functor] {
			continue
		}
		sig.Reset()
		for i, a := range fl.Args {
			if i > 0 {
				sig.WriteByte('|')
			}
			sig.WriteString(a.String())
		}
		sig.WriteByte('=')
		sig.WriteString(fvp.Args[1].String())
		bySig := out[fl.Functor]
		if bySig == nil {
			bySig = map[string]intervals.List{}
			out[fl.Functor] = bySig
		}
		s := sig.String()
		bySig[s] = intervals.Union(bySig[s], rec.IntervalsOfKey(key))
	}
	return out
}

// Figure2c runs the corrected event descriptions of Figure 2b on the
// testbed and reports their predictive accuracy. The candidates are
// evaluated concurrently (bounded by AccuracyConfig.Workers) against the
// shared read-only testbed, with rows collected in input order — the job
// RunAfter2a runs after each Figure 2b correction.
func Figure2c(tb *Testbed, corrected []CorrectedRow) ([]AccuracyRow, error) {
	sp := tb.cfg.Telemetry.Span("eval.figure2c", telemetry.Int("rows", int64(len(corrected))))
	defer sp.End()
	rows := make([]AccuracyRow, len(corrected))
	errs := make([]error, len(corrected))
	forEachOrdered(tb.cfg.Workers, len(corrected), func(i int) {
		rows[i], errs[i] = tb.evaluateCorrected(corrected[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}
