package toolvet

import (
	"fmt"
	"go/build"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// serverPackages are the standard packages that put an HTTP server, the
// expvar registry or the profiler into a binary. Only the daemon serves
// anything; a batch command that reaches one of them links TLS, HTTP/2 and
// the profiler for nothing, about half of its size.
var serverPackages = []string{"expvar", "net/http", "net/http/pprof", "runtime/pprof"}

// linkAllowed names, per command, the serverPackages it may reach: rtecd
// serves its API and the operational endpoints, rtectop scrapes /metrics
// over HTTP. Every other command may reach none.
var linkAllowed = map[string][]string{
	"rtecd":   serverPackages,
	"rtectop": {"net/http"},
}

// CheckLinkDeps applies the linkdeps rule: the import closure of each
// cmd/<name> main package under the module at root may reach only the
// serverPackages linkAllowed grants it. A command that reaches more is one
// finding at its first import on the way, naming the packages and the
// shortest import chain to the first of them. The closure is read with
// go/build from the sources and GOROOT; no go command runs. Roots without a
// go.mod are not checked.
func CheckLinkDeps(root string) ([]Finding, error) {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil || module == "" {
		return nil, err
	}
	mains, err := filepath.Glob(filepath.Join(root, "cmd", "*", "main.go"))
	if err != nil {
		return nil, err
	}
	ctxt := build.Default
	// Any file-system callback keeps go/build from asking the go command to
	// resolve an import: the walk stays in-process.
	ctxt.JoinPath = filepath.Join
	w := &linkWalker{ctxt: &ctxt, root: root, module: module, pkgs: map[string]*build.Package{}}
	var out []Finding
	for _, main := range mains {
		name := filepath.Base(filepath.Dir(main))
		f, err := w.check(name)
		if err != nil {
			return nil, err
		}
		if f != nil {
			out = append(out, *f)
		}
	}
	return out, nil
}

// modulePath reads the module line of a go.mod, or "" when there is none.
func modulePath(gomod string) (string, error) {
	src, err := os.ReadFile(gomod)
	if os.IsNotExist(err) {
		return "", nil
	}
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(src), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", nil
}

// linkWalker resolves import paths to packages, once each across commands.
// A path resolves the same way from every importer here: module paths to
// directories under root, the rest to GOROOT, whose own packages find the
// standard library's vendored ones. A module with dependencies of its own
// fails the rule with "cannot find package" rather than run the go command.
type linkWalker struct {
	ctxt   *build.Context
	root   string
	module string
	pkgs   map[string]*build.Package // by import path
}

func (w *linkWalker) load(path, srcDir string) (*build.Package, error) {
	if p, ok := w.pkgs[path]; ok {
		return p, nil
	}
	var p *build.Package
	var err error
	if rel, ok := strings.CutPrefix(path, w.module); ok && (rel == "" || rel[0] == '/') {
		p, err = w.ctxt.ImportDir(filepath.Join(w.root, filepath.FromSlash(rel)), 0)
		if p != nil {
			p.ImportPath = path
		}
	} else {
		p, err = w.ctxt.Import(path, srcDir, 0)
	}
	if err != nil {
		return nil, fmt.Errorf("linkdeps: %s: %w", path, err)
	}
	w.pkgs[path] = p
	return p, nil
}

// check walks one command's import closure breadth first and returns its
// finding, or nil when it reaches nothing it may not.
func (w *linkWalker) check(name string) (*Finding, error) {
	start, err := w.load(w.module+"/cmd/"+name, "")
	if err != nil {
		return nil, err
	}
	from := map[string]string{start.ImportPath: ""}
	queue := []*build.Package{start}
	var reached []string
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if slices.Contains(serverPackages, p.ImportPath) && !slices.Contains(linkAllowed[name], p.ImportPath) {
			reached = append(reached, p.ImportPath)
		}
		for _, imp := range p.Imports {
			if imp == "C" {
				continue
			}
			q, err := w.load(imp, p.Dir)
			if err != nil {
				return nil, err
			}
			if _, seen := from[q.ImportPath]; !seen {
				from[q.ImportPath] = p.ImportPath
				queue = append(queue, q)
			}
		}
	}
	if len(reached) == 0 {
		return nil, nil
	}
	// Breadth first, the first package reached has the shortest chain.
	var chain []string
	for at := reached[0]; at != ""; at = from[at] {
		chain = append([]string{at}, chain...)
	}
	// chain[1] is the command's own import that leads there; the finding
	// sits on it.
	pos := start.ImportPos[chain[1]][0]
	sort.Strings(reached)
	return &Finding{File: pos.Filename, Line: pos.Line, Col: pos.Column, Rule: "linkdeps",
		Message: fmt.Sprintf("%s links %s, which only rtecd may (%s)",
			name, strings.Join(reached, ", "), strings.Join(chain, " -> "))}, nil
}
