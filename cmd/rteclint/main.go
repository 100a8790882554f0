// Command rteclint runs the multi-pass static analyzer of internal/analysis
// over RTEC event-description files, without needing a gold standard.
//
// Usage:
//
//	rteclint [-json] [-min info|warning|error] [-fail-on warning|error|never]
//	         [-max-severity info|warning|error] [-fix] [-diff]
//	         [-domain maritime|fleet] [file ...]
//	rteclint -gold -domain maritime|fleet
//	rteclint -codes
//
// With no files, rteclint reads one event description from standard input.
// With -gold, rteclint lints the embedded gold standard of the selected
// domain instead of files — how TestRunGold keeps the hand-crafted event
// descriptions diagnostic-free.
// The -domain flag supplies the named domain's vocabulary, argument sorts
// and curriculum activities, enabling the vocabulary-dependent checks
// (R010, R013, and the event/predicate parts of R002), grading unused
// helpers against the curriculum's deliverables, and giving -fix a rename
// oracle for misspelt names.
//
// With -fix, the suggested fixes attached to diagnostics are applied to a
// fixpoint (at most analysis.DefaultFixBudget rounds) and the fixed source
// is printed to standard output; -diff prints a line diff against the input
// instead. Diagnostics that no fix could discharge are reported on standard
// error, and the exit status reflects them.
//
// Exit status:
//
//	0  no diagnostic at or above the failure threshold (after fixing, with -fix)
//	1  at least one diagnostic at or above the failure threshold
//	2  usage or I/O error
//
// The failure threshold is set by -fail-on (fail at or above the given
// severity; "never" disables failing) or equivalently by -max-severity (the
// highest severity tolerated: -max-severity info fails on warnings and
// errors, -max-severity error never fails). When both are given,
// -max-severity wins.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"rtecgen/internal/analysis"
	"rtecgen/internal/correct"
	"rtecgen/internal/fleet"
	"rtecgen/internal/maritime"
	"rtecgen/internal/prompt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is main with its environment made explicit, so tests can drive the
// whole CLI. It returns the process exit status.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rteclint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as JSON")
	min := fs.String("min", "info", "lowest severity to report: info, warning or error")
	failOn := fs.String("fail-on", "error", "exit non-zero at or above this severity: warning, error or never")
	maxSev := fs.String("max-severity", "", "highest severity tolerated: info, warning or error (overrides -fail-on)")
	fix := fs.Bool("fix", false, "apply suggested fixes to a fixpoint and print the fixed source")
	diff := fs.Bool("diff", false, "with -fix, print a diff against the input instead of the fixed source")
	domainName := fs.String("domain", "", "domain vocabulary to check names against: maritime or fleet")
	gold := fs.Bool("gold", false, "lint the embedded gold standard of -domain instead of files")
	listCodes := fs.Bool("codes", false, "list the diagnostic codes and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *listCodes {
		printCodes(stdout)
		return 0
	}

	fatal := func(err error) int {
		fmt.Fprintln(stderr, "rteclint:", err)
		return 2
	}
	opts, err := domainOptions(*domainName)
	if err != nil {
		return fatal(err)
	}
	minSev, err := parseSeverity(*min)
	if err != nil {
		return fatal(err)
	}
	failSev, err := failThreshold(*failOn, *maxSev)
	if err != nil {
		return fatal(err)
	}
	if *diff {
		*fix = true
	}

	type fileReport struct {
		File        string                `json:"file"`
		Diagnostics []analysis.Diagnostic `json:"diagnostics"`
		Rounds      []analysis.FixRound   `json:"fixRounds,omitempty"`
	}
	ins := inputs(fs.Args())
	if *gold {
		src, err := goldSource(*domainName)
		if err != nil {
			return fatal(err)
		}
		ins = []input{{name: "gold:" + *domainName, src: src}}
	}

	var reports []fileReport
	for _, in := range ins {
		src, err := in.read(stdin)
		if err != nil {
			return fatal(err)
		}
		var fr fileReport
		fr.File = in.name
		if *fix {
			res := analysis.Fix(src, opts, analysis.DefaultFixBudget)
			fr.Diagnostics = res.Report.Filter(minSev).Diagnostics
			fr.Rounds = res.Rounds
			if !*jsonOut {
				if *diff {
					fmt.Fprint(stdout, analysis.Diff(in.name, src, res.Source))
				} else {
					fmt.Fprint(stdout, res.Source)
				}
			}
		} else {
			fr.Diagnostics = analysis.AnalyzeSource(src, opts).Filter(minSev).Diagnostics
		}
		reports = append(reports, fr)
	}

	failed := false
	for _, fr := range reports {
		failed = failed || exceeds(fr.Diagnostics, failSev)
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			return fatal(err)
		}
	} else {
		// With -fix the fixed source owns stdout; diagnostics go to stderr.
		diagOut := stdout
		if *fix {
			diagOut = stderr
		}
		total := 0
		for _, fr := range reports {
			for _, d := range fr.Diagnostics {
				fmt.Fprintf(diagOut, "%s:%s\n", fr.File, d)
			}
			total += len(fr.Diagnostics)
		}
		fmt.Fprintf(diagOut, "%d diagnostics in %d files\n", total, len(reports))
	}
	if failed {
		return 1
	}
	return 0
}

// failThreshold resolves the -fail-on / -max-severity pair into the lowest
// severity that fails the run (analysis.Error+1 means never fail).
func failThreshold(failOn, maxSev string) (analysis.Severity, error) {
	never := analysis.Error + 1
	if maxSev != "" {
		if maxSev == "error" {
			return never, nil
		}
		s, err := parseSeverity(maxSev)
		if err != nil {
			return 0, fmt.Errorf("-max-severity must be info, warning or error")
		}
		return s + 1, nil
	}
	if failOn == "never" {
		return never, nil
	}
	s, err := parseSeverity(failOn)
	if err != nil || s == analysis.Info {
		return 0, fmt.Errorf("-fail-on must be warning, error or never")
	}
	return s, nil
}

func exceeds(ds []analysis.Diagnostic, failSev analysis.Severity) bool {
	for _, d := range ds {
		if d.Severity >= failSev {
			return true
		}
	}
	return false
}

// input is one lint source: a file path, standard input, or an embedded
// gold standard.
type input struct {
	name string
	path string // empty for stdin or embedded sources
	src  string // non-empty for an embedded gold standard
}

// goldSource resolves -gold to the embedded gold standard of the domain.
func goldSource(domain string) (string, error) {
	switch domain {
	case "maritime":
		return maritime.GoldSource(), nil
	case "fleet":
		return fleet.GoldSource(), nil
	}
	return "", fmt.Errorf("-gold needs -domain maritime or fleet")
}

func inputs(args []string) []input {
	if len(args) == 0 {
		return []input{{name: "<stdin>"}}
	}
	out := make([]input, len(args))
	for i, a := range args {
		out[i] = input{name: a, path: a}
	}
	return out
}

func (in input) read(stdin io.Reader) (string, error) {
	if in.src != "" {
		return in.src, nil
	}
	if in.path == "" {
		b, err := io.ReadAll(stdin)
		return string(b), err
	}
	b, err := os.ReadFile(in.path)
	return string(b), err
}

func domainOptions(name string) (analysis.Options, error) {
	var dom *prompt.Domain
	var roots map[string]bool
	switch name {
	case "":
		return analysis.Options{}, nil
	case "maritime":
		dom = maritime.PromptDomain()
		roots = map[string]bool{}
		for _, a := range maritime.Curriculum {
			for _, f := range a.Fluents {
				roots[strings.SplitN(f, "/", 2)[0]] = true
			}
		}
	case "fleet":
		dom = fleet.PromptDomain()
		roots = map[string]bool{}
		for _, a := range fleet.Curriculum {
			for _, f := range a.Fluents {
				roots[strings.SplitN(f, "/", 2)[0]] = true
			}
		}
	default:
		return analysis.Options{}, fmt.Errorf("unknown domain %q: want maritime or fleet", name)
	}
	return analysis.Options{
		Vocabulary: dom.KnownNames(),
		Roots:      roots,
		Sorts:      dom.ArgSorts(),
		Rename:     correct.Renamer(dom),
	}, nil
}

func parseSeverity(s string) (analysis.Severity, error) {
	switch s {
	case "info":
		return analysis.Info, nil
	case "warning":
		return analysis.Warning, nil
	case "error":
		return analysis.Error, nil
	}
	return analysis.Info, fmt.Errorf("unknown severity %q: want info, warning or error", s)
}

func printCodes(w io.Writer) {
	fmt.Fprintf(w, "%s  syntax error: the input does not parse as an event description\n", analysis.SyntaxCode)
	for _, p := range analysis.Passes() {
		fmt.Fprintf(w, "%s  %s: %s\n", p.Code, p.Name, p.Doc)
	}
}
