package toolvet

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// frozenMarker starts the doc comment line that puts an identifier on the
// frozen ledger: a stub kept, inert, only because benchmark/ still reads it
// and nothing but a change to the benchmark may edit benchmark/.
const frozenMarker = "frozen:"

// frozenReader is the directory, relative to the repository root, whose
// references keep a stub on the ledger.
const frozenReader = "benchmark"

// FrozenStub is one entry of the frozen ledger: a declaration whose doc
// comment carries frozenMarker. Name is the declared identifier, or the flag
// as a command line spells it ("-workers") when the marker documents a flag
// registration. Name is empty when the marker documents neither.
type FrozenStub struct {
	File string
	Line int
	Name string
}

// FrozenLedger lists every frozen stub in the non-test Go under root outside
// benchmark/, in walk order.
func FrozenLedger(root string) ([]FrozenStub, error) {
	var out []FrozenStub
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if Exempt(path+"/") || path == filepath.Join(root, frozenReader) {
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
		stubs, err := frozenStubs(path, src)
		if err != nil {
			return err
		}
		out = append(out, stubs...)
		return nil
	})
	return out, err
}

// frozenStubs finds the frozen markers of one file. A marker names what
// starts on the line after its comment ends: a struct field, a declaration,
// or a statement registering a flag (flag.IntVar(&v, "workers", ...)).
func frozenStubs(filename string, src []byte) ([]FrozenStub, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	marked := map[int]*FrozenStub{} // by the line the marked node starts on
	var order []*FrozenStub
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), frozenMarker) {
				s := &FrozenStub{File: filename, Line: fset.Position(c.Pos()).Line}
				marked[fset.Position(cg.End()).Line+1] = s
				order = append(order, s)
				break
			}
		}
	}
	if len(order) == 0 {
		return nil, nil
	}
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		s := marked[fset.Position(n.Pos()).Line]
		if s == nil || s.Name != "" {
			return true
		}
		switch n := n.(type) {
		case *ast.Field:
			if len(n.Names) > 0 {
				s.Name = n.Names[0].Name
			}
		case *ast.FuncDecl:
			s.Name = n.Name.Name
		case *ast.TypeSpec:
			s.Name = n.Name.Name
		case *ast.ValueSpec:
			s.Name = n.Names[0].Name
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				s.Name = flagRegistered(call)
			}
		}
		return true
	})
	out := make([]FrozenStub, len(order))
	for i, s := range order {
		out[i] = *s
	}
	return out, nil
}

// flagRegistered returns "-name" for a flag registration call
// (flag.IntVar(&v, "name", ...), fs.Bool("name", ...)): the first string
// literal argument of a call to a flag package or FlagSet method.
func flagRegistered(call *ast.CallExpr) string {
	if _, ok := call.Fun.(*ast.SelectorExpr); !ok {
		return ""
	}
	for _, a := range call.Args {
		if lit, ok := a.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if name, err := strconv.Unquote(lit.Value); err == nil {
				return "-" + name
			}
		}
	}
	return ""
}

// frozenReferences collects what benchmark/ under root references: every
// identifier and string literal of its Go files, tests included, and every
// word of its shell scripts.
func frozenReferences(root string) (map[string]bool, error) {
	refs := map[string]bool{}
	err := filepath.WalkDir(filepath.Join(root, frozenReader), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		switch {
		case strings.HasSuffix(path, ".go"):
			file, err := parser.ParseFile(token.NewFileSet(), path, src, 0)
			if err != nil {
				return err
			}
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					refs[n.Name] = true
				case *ast.BasicLit:
					if s, err := strconv.Unquote(n.Value); err == nil && n.Kind == token.STRING {
						refs[s] = true
					}
				}
				return true
			})
		case strings.HasSuffix(path, ".sh"):
			for _, w := range strings.Fields(string(src)) {
				refs[w] = true
			}
		}
		return nil
	})
	return refs, err
}

// CheckFrozen applies the frozen rule to the ledger of the tree at root: a
// stub benchmark/ no longer references has no reader left and must be
// deleted, and a marker that names nothing is a finding too. A flag is
// referenced as "-name" or "--name".
func CheckFrozen(root string, ledger []FrozenStub) ([]Finding, error) {
	refs, err := frozenReferences(root)
	if err != nil {
		return nil, err
	}
	var out []Finding
	for _, s := range ledger {
		switch {
		case s.Name == "":
			out = append(out, Finding{File: s.File, Line: s.Line, Col: 1, Rule: "frozen",
				Message: "marker documents no field, declaration or flag registration"})
		case !refs[s.Name] && !(strings.HasPrefix(s.Name, "-") && refs["-"+s.Name]):
			out = append(out, Finding{File: s.File, Line: s.Line, Col: 1, Rule: "frozen",
				Message: fmt.Sprintf("%s is frozen for %s/, which no longer references it: delete the stub", s.Name, frozenReader)})
		}
	}
	return out, nil
}
