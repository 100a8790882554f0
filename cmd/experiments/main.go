// Command experiments regenerates the paper's evaluation (Section 5):
// Figure 2a (similarity of LLM-generated event descriptions against the
// hand-crafted gold standard), Figure 2b (similarity after minimal
// syntactic corrections) and Figure 2c (predictive accuracy on composite
// event recognition over the synthetic Brest-like stream), plus the
// automated qualitative error assessment. The refine figure reports the
// critique–refine loop of Section 3.4: per round, the diagnostics the
// autofixer discharged, those the model was critiqued on, and the resulting
// similarity and F1 scores. Refinement continues each Figure 2a
// conversation with live critique turns.
//
// Usage:
//
//	experiments [-fig 2a|2b|2c|refine|all] [-errors] [-lint] [-zeroshot] [-csv] [-vessels N] [-seed S] [-window W]
//	            [-workers N]
//	            [-trace out.json] [-metrics] [-v]
//
// Parallelism: -workers bounds how many whole jobs run at once — first the
// 12 generation pipelines and their scorings (Figure 2a), then one job list
// on one pool: the per-model refine chains, then per top-3 row a chain that
// corrects and re-scores it (Figure 2b) and evaluates it on the testbed
// (Figure 2c). There is no barrier between Figures 2b, 2c and the refine
// figure, and each job runs only when a printed figure needs it. It is the
// only level of fan-out: every recognition engine inside a job evaluates its
// windows on one goroutine. Output is byte-identical at any count, and
// -workers 1 runs every job in order on the calling goroutine.
//
// Observability: -metrics dumps the telemetry registry to stderr at exit
// (stdout is untouched); -trace writes a Chrome trace_event JSON of the
// whole run, per-stage spans included; -v enables structured debug logs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"

	"rtecgen/internal/analysis"
	"rtecgen/internal/check"
	"rtecgen/internal/eval"
	"rtecgen/internal/figures"
	"rtecgen/internal/llm"
	"rtecgen/internal/maritime"
	"rtecgen/internal/prompt"
	"rtecgen/internal/similarity"
	"rtecgen/internal/telemetry"
)

// options carries every flag of the command.
type options struct {
	fig                  string
	errorsFlag, lintFlag bool
	csv                  bool
	vessels              int
	seed, window         int64
	workers              int
	tel                  telemetry.CLIConfig
}

func main() {
	var o options
	flag.StringVar(&o.fig, "fig", "all", "figure to regenerate: 2a, 2b, 2c, refine or all")
	flag.BoolVar(&o.errorsFlag, "errors", false, "print the qualitative error assessment")
	flag.BoolVar(&o.lintFlag, "lint", false, "print per-model static-analysis diagnostic counts (rteclint)")
	zeroShot := flag.Bool("zeroshot", false, "also report zero-shot prompting (excluded from the pipeline in the paper)")
	flag.BoolVar(&o.csv, "csv", false, "emit CSV instead of bar charts")
	flag.IntVar(&o.vessels, "vessels", 60, "fleet size of the synthetic scenario (Figure 2c)")
	flag.Int64Var(&o.seed, "seed", 7, "scenario seed (Figure 2c)")
	flag.Int64Var(&o.window, "window", 3600, "RTEC window size in seconds (Figure 2c)")
	flag.IntVar(&o.workers, "workers", 0, "concurrent jobs: generation pipelines, refine chains, Figure 2b/2c chains; each recognition engine inside a job runs sequentially (0 = GOMAXPROCS, 1 = sequential); output is identical at any count")
	flag.StringVar(&o.tel.TracePath, "trace", "", "write a Chrome trace_event JSON of the run to this file")
	flag.BoolVar(&o.tel.Metrics, "metrics", false, "dump the telemetry registry to stderr at exit")
	flag.BoolVar(&o.tel.Verbose, "v", false, "structured debug logging to stderr")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if *zeroShot {
		if err := runZeroShot(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
}

// runZeroShot reports the finding of Section 3 that made the paper exclude
// zero-shot prompting from the pipeline: with prompt F skipped, similarity
// collapses for every model.
func runZeroShot() error {
	gold := maritime.GoldED()
	domain := maritime.PromptDomain()
	curriculum := maritime.CurriculumRequests()
	rows := [][]string{{"model", "zero-shot", "few-shot", "chain-of-thought"}}
	for _, m := range llm.AllModels() {
		cells := []string{m.Name()}
		for _, scheme := range []prompt.Scheme{prompt.ZeroShot, prompt.FewShot, prompt.ChainOfThought} {
			gen, err := prompt.RunPipeline(m, scheme, domain, curriculum)
			if err != nil {
				return err
			}
			s, err := similarity.EventDescriptionSimilarity(gold, gen.ED())
			if err != nil {
				return err
			}
			cells = append(cells, fmt.Sprintf("%.3f", s))
		}
		rows = append(rows, cells)
	}
	fmt.Println("Zero-shot prompting (excluded from the pipeline, Section 3):")
	fmt.Print(figures.Table(rows))
	return nil
}

func run(o options) error {
	tel, flush := o.tel.Setup(os.Stderr, os.Stderr)

	var models []prompt.Model
	for _, m := range llm.AllModels() {
		models = append(models, m)
	}

	want2a, want2b := o.fig == "2a" || o.fig == "all", o.fig == "2b" || o.fig == "all"
	want2c, wantRefine := o.fig == "2c" || o.fig == "all", o.fig == "refine" || o.fig == "all"

	// The recognition testbed backs both Figure 2c and the F1 column of the
	// refine figure. It depends on nothing but the flags, so with more than
	// one worker it is built while the event descriptions are generated.
	var testbed func() (*eval.Testbed, error)
	if want2c || wantRefine {
		build := func() (*eval.Testbed, error) {
			return eval.NewTestbed(eval.AccuracyConfig{
				Scenario:   maritime.ScenarioConfig{Vessels: o.vessels, Seed: o.seed},
				Preprocess: maritime.DefaultPreprocessConfig(),
				Window:     o.window,
				Telemetry:  tel,
				Workers:    o.workers,
			})
		}
		testbed = build
		if o.resolvedWorkers() > 1 {
			type built struct {
				tb  *eval.Testbed
				err error
			}
			done := make(chan built, 1)
			go func() {
				tb, err := build()
				done <- built{tb, err}
			}()
			testbed = func() (*eval.Testbed, error) {
				b := <-done
				return b.tb, b.err
			}
		}
	}

	best, _, err := eval.Figure2aWith(tel, models, o.workers)
	if err != nil {
		return err
	}
	var tb *eval.Testbed
	if testbed != nil {
		if tb, err = testbed(); err != nil {
			return err
		}
	}
	// Everything after Figure 2a is one job list on one pool: the refine
	// chains, then a correct → score → evaluate chain per top-3 row. Figure
	// 2b is computed only for a figure that prints it or builds on it.
	var refine, top []eval.Row
	if wantRefine {
		refine = best
	}
	if want2b || want2c {
		top = eval.TopN(best, 3)
	}
	after, err := eval.RunAfter2a(tel, models, refine, top, eval.DefaultRefineBudget, tb, o.workers)
	if err != nil {
		return err
	}

	if want2a {
		labels := make([]string, len(best))
		for i, r := range best {
			labels[i] = r.Label()
		}
		printSimilarity("Figure 2a: similarity of LLM-generated definitions (best scheme per model)", labels, best, o.csv)
	}

	if want2b {
		labels, rows := make([]string, len(after.Corrected)), make([]eval.Row, len(after.Corrected))
		for i, r := range after.Corrected {
			labels[i], rows[i] = r.Label(), r.Row
		}
		printSimilarity("Figure 2b: similarities after minimal syntactic changes", labels, rows, o.csv)
		if !o.csv {
			for _, r := range after.Corrected {
				fmt.Printf("%s corrections: %s\n", r.Label(), r.Corrected.Summary())
			}
			fmt.Println()
		}
	}

	if want2c {
		var series []figures.Series
		var rows [][]string
		rows = append(rows, append([]string{"event description"}, eval.ActivityKeys...))
		for _, r := range after.Accuracy {
			label := r.Label
			vals := make([]float64, 0, len(eval.ActivityKeys))
			cells := []string{label}
			for _, k := range eval.ActivityKeys {
				vals = append(vals, r.PerActivity[k].Score())
				cells = append(cells, fmt.Sprintf("%.3f", r.PerActivity[k].Score()))
			}
			series = append(series, figures.Series{Name: label, Values: vals})
			rows = append(rows, cells)
		}
		if o.csv {
			fmt.Print(figures.CSV(rows))
		} else {
			fmt.Println(figures.BarChart("Figure 2c: predictive accuracy (f1-score per activity)", eval.ActivityKeys, series, 40))
		}
	}

	if wantRefine {
		printRefine(os.Stdout, after.Refined, o.csv)
	}

	if o.lintFlag {
		printLint(tel, best)
	}

	if o.errorsFlag {
		gold := maritime.GoldED()
		domain := maritime.PromptDomain()
		fmt.Println("Qualitative error assessment (automated, Section 5.2):")
		for _, r := range best {
			findings := check.Analyze(r.Gen, gold, domain)
			counts := check.CountByCategory(findings)
			fmt.Printf("\n%s: %d findings (syntax %d, naming %d, kind %d, undefined %d, operator %d)\n",
				r.Label(), len(findings), counts[check.Syntax], counts[check.Naming],
				counts[check.FluentKind], counts[check.Undefined], counts[check.Operator])
			for _, f := range findings {
				fmt.Println("  ", f)
			}
		}
	}

	return flush()
}

// resolvedWorkers is the effective fan-out the run used: the -workers flag
// with 0 resolved to GOMAXPROCS.
func (o options) resolvedWorkers() int {
	if o.workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.workers
}

// printSimilarity renders a similarity figure (2a or 2b): per row, under its
// label, the similarity of each activity and of the whole description.
func printSimilarity(title string, labels []string, rows []eval.Row, csv bool) {
	groups := append(append([]string{}, eval.ActivityKeys...), "all")
	var series []figures.Series
	table := [][]string{append([]string{"event description"}, groups...)}
	for i, r := range rows {
		vals := make([]float64, 0, len(groups))
		cells := []string{labels[i]}
		for _, k := range eval.ActivityKeys {
			vals = append(vals, r.PerActivity[k])
			cells = append(cells, fmt.Sprintf("%.3f", r.PerActivity[k]))
		}
		vals = append(vals, r.Overall)
		cells = append(cells, fmt.Sprintf("%.3f", r.Overall))
		series = append(series, figures.Series{Name: labels[i], Values: vals})
		table = append(table, cells)
	}
	if csv {
		fmt.Print(figures.CSV(table))
	} else {
		fmt.Println(figures.BarChart(title, groups, series, 40))
	}
}

// printRefine renders the critique–refine traces: one row per model and
// round, with the mechanical repairs, the diagnostics left for the model,
// the similarity scores after autofixing, the testbed F1, and the
// activities critiqued to produce the next round.
func printRefine(w io.Writer, rows []eval.RefineRow, csv bool) {
	table := [][]string{{"event description", "round", "autofixed", "remaining", "similarity", "average", "f1", "critiqued"}}
	for _, r := range rows {
		for _, rd := range r.Rounds {
			f1 := "-"
			if rd.F1 >= 0 {
				f1 = fmt.Sprintf("%.3f", rd.F1)
			}
			table = append(table, []string{
				r.Label(), fmt.Sprintf("%d", rd.Round),
				fmt.Sprintf("%d", rd.Fixed), fmt.Sprintf("%d", rd.Remaining),
				fmt.Sprintf("%.3f", rd.Overall), fmt.Sprintf("%.3f", rd.Average),
				f1, strings.Join(rd.Critiqued, " "),
			})
		}
	}
	if csv {
		fmt.Fprint(w, figures.CSV(table))
		return
	}
	fmt.Fprintln(w, "Critique-refine loop (per round, best scheme per model):")
	fmt.Fprint(w, figures.Table(table))
	fmt.Fprintln(w)
}

// printLint lints each model's best event description and renders the
// diagnostic counts: one row per model, one column per diagnostic code that
// fires for any of them, plus severity totals and the count of raw response
// chunks that did not even parse.
func printLint(tel *telemetry.Telemetry, best []eval.Row) {
	domain := maritime.PromptDomain()
	reports := make([]*analysis.Report, len(best))
	codeSet := map[string]bool{}
	for i, r := range best {
		reports[i] = r.Gen.LintWith(tel, domain)
		for _, code := range reports[i].Codes() {
			codeSet[code] = true
		}
	}
	codes := make([]string, 0, len(codeSet))
	for c := range codeSet {
		codes = append(codes, c)
	}
	sort.Strings(codes)

	header := append([]string{"event description", "parse errs"}, codes...)
	header = append(header, "errors", "warnings", "infos")
	rows := [][]string{header}
	for i, r := range best {
		rep := reports[i]
		byCode := rep.CountByCode()
		cells := []string{r.Label(), fmt.Sprintf("%d", len(r.Gen.ParseErrors()))}
		for _, c := range codes {
			cells = append(cells, fmt.Sprintf("%d", byCode[c]))
		}
		errs, warns, infos := 0, 0, 0
		for _, d := range rep.Diagnostics {
			switch d.Severity {
			case analysis.Error:
				errs++
			case analysis.Warning:
				warns++
			default:
				infos++
			}
		}
		cells = append(cells, fmt.Sprintf("%d", errs), fmt.Sprintf("%d", warns), fmt.Sprintf("%d", infos))
		rows = append(rows, cells)
	}
	fmt.Println("Static analysis of the generated event descriptions (rteclint):")
	fmt.Print(figures.Table(rows))
	fmt.Println()
}
