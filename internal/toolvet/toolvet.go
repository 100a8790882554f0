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
//   - signal: a string literal passed to .Counter(, .Gauge(, .Histogram( or
//     shardMetric( must occur — dotted, or with underscores as a scrape
//     exposes it — in ci.sh, cmd/rtectop/main.go or README.md. A literal
//     ending in "." is a family prefix ("rtec.stratum.micros." + s); a
//     "<prefix>.*" mention covers every name below the prefix. A guard, not
//     an audit: a substring of a consumed name passes.
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
	Rule    string // "wallclock", "unseededrand" or "signal"
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
// counts as reading a signal: the CI gates, the rtectop boards and the
// README's metric paragraphs.
var consumerFiles = []string{"ci.sh", "cmd/rtectop/main.go", "README.md"}

// signalNameArg maps each inspected call to its metric-name argument.
var signalNameArg = map[string]int{"Counter": 0, "Gauge": 0, "Histogram": 0, "shardMetric": 1}

// signalName returns the metric-name literal of a registry call (for
// "family." + label, the leftmost operand), or "" when call is not one or
// computes its name.
func signalName(call *ast.CallExpr) (string, token.Pos) {
	var fn string
	switch f := call.Fun.(type) {
	case *ast.SelectorExpr:
		fn = f.Sel.Name
	case *ast.Ident:
		fn = f.Name
	}
	i, ok := signalNameArg[fn]
	if !ok || i >= len(call.Args) {
		return "", token.NoPos
	}
	arg := call.Args[i]
	for {
		bin, ok := arg.(*ast.BinaryExpr)
		if !ok || bin.Op != token.ADD {
			break
		}
		arg = bin.X
	}
	lit, ok := arg.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", token.NoPos
	}
	name, _ := strconv.Unquote(lit.Value)
	return name, lit.Pos()
}

// signalConsumed reports whether consumers mentions name: dotted, in its
// scrape form, or through a "<prefix>.*" family mention.
func signalConsumed(name, consumers string) bool {
	name = strings.TrimSuffix(name, ".")
	if strings.Contains(consumers, name) || strings.Contains(consumers, telemetry.PromName("gauge", name)) {
		return true
	}
	for i := strings.LastIndex(name, "."); i > 0; i = strings.LastIndex(name[:i], ".") {
		if strings.Contains(consumers, name[:i]+".*") {
			return true
		}
	}
	return false
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
// applies when root holds any of consumerFiles (backslashes dropped: ci.sh
// greps for "rtec\.shared\.hits_total"). Findings are ordered by file, then
// position.
func CheckDir(root string) ([]Finding, error) {
	var consumers string
	for _, rel := range consumerFiles {
		src, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		consumers += strings.ReplaceAll(string(src), "\\", "")
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
