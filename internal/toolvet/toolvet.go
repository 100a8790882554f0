// Package toolvet is a repository-local vet checker for determinism
// hazards. Reproducibility is a hard requirement of this codebase — chaos
// runs are byte-identical per seed, checkpoints replay exactly, and the
// evaluation figures are pinned — so wall-clock reads and global
// (unseeded) randomness are confined to explicitly audited sites.
//
// Two rules are enforced over non-test code:
//
//   - wallclock: time.Now and time.Sleep are forbidden outside
//     internal/clock. Code that needs the current time takes a clock.Clock
//     (or an injected func() time.Time) so virtual-time tests and chaos
//     runs stay deterministic.
//
//   - unseededrand: package-level math/rand calls (rand.Intn, rand.Seed,
//     rand.Shuffle, ...) are forbidden; they draw from the process-global
//     source. Use rand.New(rand.NewSource(seed)) — the constructors New
//     and NewSource are allowed.
//
// A site that legitimately needs the real thing carries a justification on
// the same line or the line above:
//
//	t0 := time.Now() //rtecvet:allow measuring real wall-clock for -metrics
//
// A directive without a reason does not suppress the finding. The checker
// is purely syntactic (stdlib go/ast, no type information): it matches
// selector calls on the file's "time" and "math/rand" import names, so a
// local variable shadowing an import name could in principle false-positive;
// none does in this repository.
//
// A third rule holds the registry to DESIGN.md §10 (a signal has a reader or
// is removed):
//
//   - signal: a string literal passed to .Counter(, .Gauge( or .Histogram(
//     must occur — dotted, or with underscores as a scrape exposes it — in
//     one of consumerFiles: ci.sh, the contract tests, the
//     shared-evaluation test, cmd/rtectop/main.go or README.md. A literal
//     ending in "." is a family prefix ("rtec.stratum.micros." + s). A
//     "<prefix>.*" mention covers no name: each must be read by name. A
//     guard, not an audit: a substring of a consumed name passes.
//
// A fourth holds the documents to the binaries (flagdoc.go):
//
//   - flagdoc: on a shell line of a code block, or in an inline code span,
//     of README.md, DESIGN.md, the verify skill or a command's package doc
//     comment, a command that names a repository binary may pass only
//     flags that cmd/<binary>/main.go registers.
//
// A fifth holds the documents to the registry (metricdoc.go), the converse
// of signal:
//
//   - metricdoc: a metric or span name (rtec., serve., stream., or the
//     rtec_/serve_ scrape form) in an inline code span of those documents
//     must resolve to a string literal of non-test Go: a Counter, Gauge,
//     Histogram, Describe or Span argument, an index-only Sprintf format,
//     or a Name: of benchmark/report.go. The _total suffix,
//     <placeholders>, {a,b} lists and a closing .* are normalised first —
//     delete a metric and the docs that still name it fail here.
//
// A sixth holds the change log to summaries (changes.go):
//
//   - changesline: no line of CHANGES.md is longer than 300 characters.
//
// And a seventh keeps the frozen ledger (frozen.go): the identifiers kept as
// inert stubs only because benchmark/, which only a change to the benchmark
// may edit, still uses them.
//
//   - frozen: a doc comment line starting "frozen:" marks the field,
//     declaration or flag registration after it. FrozenLedger lists the
//     marks; each must still be referenced from benchmark/ (an identifier, a
//     string literal, or a shell word such as "-workers"). One that is not
//     has no reader left and is a finding: delete the stub.
//
// An eighth keeps the batch commands free of an HTTP server (linkdeps.go):
//
//   - linkdeps: the import closure of a cmd/<name> main package, read with
//     go/build, reaches none of net/http, expvar, net/http/pprof and
//     runtime/pprof, except that rtecd may reach all four and rtectop, which
//     scrapes /metrics, net/http. A finding names the import chain.
package toolvet

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"rtecgen/internal/telemetry"
)

// Finding is one determinism hazard.
type Finding struct {
	File    string
	Line    int
	Col     int
	Rule    string // "wallclock", "unseededrand", "signal", "flagdoc", "metricdoc", "changesline", "frozen" or "linkdeps"
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Rule, f.Message)
}

// forbiddenTime are the time package functions that read or depend on the
// wall clock.
var forbiddenTime = map[string]bool{"Now": true, "Sleep": true}

// allowedRand are the math/rand names that do not touch the global source:
// the constructors for explicitly seeded generators, and the package's
// type names (which appear in declarations like *rand.Rand).
var allowedRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"Rand": true, "Source": true, "Source64": true, "Zipf": true,
}

// CheckSource analyzes one Go source file. consumers is the text the signal
// rule looks metric names up in; empty skips that rule.
func CheckSource(filename string, src []byte, consumers string) ([]Finding, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		return nil, err
	}

	timeName := importName(file, "time")
	randName := importName(file, "math/rand")

	// Lines carrying a justified //rtecvet:allow directive suppress
	// findings on the same line and the line below.
	allow := map[int]bool{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			reason, ok := strings.CutPrefix(text, "rtecvet:allow")
			if !ok || strings.TrimSpace(reason) == "" {
				continue
			}
			allow[fset.Position(c.Pos()).Line] = true
		}
	}

	var out []Finding
	report := func(pos token.Pos, rule, msg string) {
		p := fset.Position(pos)
		if allow[p.Line] || allow[p.Line-1] {
			return
		}
		out = append(out, Finding{File: filename, Line: p.Line, Col: p.Column, Rule: rule, Message: msg})
	}
	// Any selector mention counts, not just calls: passing time.Now as a
	// function value makes the caller just as wall-clock dependent.
	ast.Inspect(file, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && consumers != "" {
			if name, pos := signalName(call); name != "" && !signalConsumed(name, consumers) {
				report(pos, "signal", fmt.Sprintf("%q has no consumer in %s", name, strings.Join(consumerFiles, ", ")))
			}
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Obj != nil { // pkg.Obj != nil: a local object shadows the import name
			return true
		}
		switch {
		case timeName != "" && pkg.Name == timeName && forbiddenTime[sel.Sel.Name]:
			report(sel.Pos(), "wallclock",
				fmt.Sprintf("time.%s outside internal/clock; inject a clock.Clock (or add //rtecvet:allow <reason>)", sel.Sel.Name))
		case randName != "" && pkg.Name == randName && !allowedRand[sel.Sel.Name]:
			report(sel.Pos(), "unseededrand",
				fmt.Sprintf("rand.%s uses the global source; use rand.New(rand.NewSource(seed)) (or add //rtecvet:allow <reason>)", sel.Sel.Name))
		}
		return true
	})
	return out, nil
}

// consumerFiles are the files, relative to the repository root, whose text
// counts as reading a signal: the CI gates, the contract tests that assert on
// counters, the rtectop boards and the README's metric paragraphs.
var consumerFiles = []string{
	"ci.sh",
	"cmd/rtec/contract_test.go",
	"internal/rtec/contract_test.go",
	"internal/eval/accuracy_test.go",
	"cmd/rtectop/main.go",
	"README.md",
}

// signalNameArg maps each inspected call to its metric-name argument.
var signalNameArg = map[string]int{"Counter": 0, "Gauge": 0, "Histogram": 0}

// signalName returns the metric-name literal of a registry call (for
// "family." + label, the leftmost operand), or "" when call is not one or
// computes its name.
func signalName(call *ast.CallExpr) (string, token.Pos) {
	i, ok := signalNameArg[callName(call)]
	if !ok || i >= len(call.Args) {
		return "", token.NoPos
	}
	name, ok := leftLiteral(call.Args[i])
	if !ok {
		return "", token.NoPos
	}
	return name, call.Args[i].Pos()
}

// callName is the name of the function or method a call invokes.
func callName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.SelectorExpr:
		return f.Sel.Name
	case *ast.Ident:
		return f.Name
	}
	return ""
}

// leftLiteral returns the string literal an expression is, or starts with
// when it is a chain of + operands ("family." + label).
func leftLiteral(e ast.Expr) (string, bool) {
	for {
		bin, ok := e.(*ast.BinaryExpr)
		if !ok || bin.Op != token.ADD {
			break
		}
		e = bin.X
	}
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

// signalConsumed reports whether consumers mentions name, dotted or in its
// scrape form.
func signalConsumed(name, consumers string) bool {
	name = strings.TrimSuffix(name, ".")
	return strings.Contains(consumers, name) || strings.Contains(consumers, telemetry.PromName("gauge", name))
}

// importName returns the name under which path is imported in file, or ""
// when it is not imported (or imported blank).
func importName(file *ast.File, path string) string {
	for _, imp := range file.Imports {
		if strings.Trim(imp.Path.Value, `"`) != path {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "_" || imp.Name.Name == "." {
				return ""
			}
			return imp.Name.Name
		}
		return path[strings.LastIndex(path, "/")+1:]
	}
	return ""
}

// Exempt reports whether a path is outside the checker's scope: test
// files, the clock package itself (the one legitimate wall-clock owner),
// testdata and vendored code.
func Exempt(path string) bool {
	if strings.HasSuffix(path, "_test.go") {
		return true
	}
	norm := filepath.ToSlash(path)
	for _, part := range strings.Split(norm, "/") {
		if part == "testdata" || part == "vendor" || part == ".git" {
			return true
		}
	}
	return strings.Contains(norm, "internal/clock/") || strings.HasSuffix(filepath.Dir(norm), "internal/clock")
}

// CheckDir walks root and checks every non-exempt .go file; the signal rule
// applies when root holds any of consumerFiles, the flagdoc rule when it
// holds commands under cmd/, the metricdoc rule to its documents, the
// changesline rule when it holds CHANGES.md, the frozen rule when it holds
// benchmark/, and the linkdeps rule when it holds a go.mod. Findings are ordered by file, then position.
func CheckDir(root string) ([]Finding, error) {
	var consumers string
	for _, rel := range consumerFiles {
		src, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		consumers += string(src)
	}
	var out []Finding
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if Exempt(path + "/") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || Exempt(path) {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fs, err := CheckSource(path, src, consumers)
		if err != nil {
			return err
		}
		out = append(out, fs...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	flags, err := commandFlags(root)
	if err != nil {
		return nil, err
	}
	literals, err := metricLiterals(root)
	if err != nil {
		return nil, err
	}
	docs, err := checkCommandDocs(root, flags)
	if err != nil {
		return nil, err
	}
	out = append(out, docs...)
	for _, rel := range flagDocs {
		src, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		out = append(out, CheckDoc(filepath.Join(root, rel), string(src), flags)...)
		out = append(out, CheckMetricDoc(filepath.Join(root, rel), string(src), literals)...)
	}
	changes, err := os.ReadFile(filepath.Join(root, changesFile))
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	out = append(out, CheckChanges(filepath.Join(root, changesFile), string(changes))...)
	links, err := CheckLinkDeps(root)
	if err != nil {
		return nil, err
	}
	out = append(out, links...)
	if fi, err := os.Stat(filepath.Join(root, frozenReader)); err == nil && fi.IsDir() {
		ledger, err := FrozenLedger(root)
		if err != nil {
			return nil, err
		}
		frozen, err := CheckFrozen(root, ledger)
		if err != nil {
			return nil, err
		}
		out = append(out, frozen...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		return out[i].Col < out[j].Col
	})
	return out, nil
}
