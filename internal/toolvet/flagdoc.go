package toolvet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
)

// flagDocs are the documents, relative to the repository root, whose
// command lines the flagdoc rule checks and whose code spans the metricdoc
// rule checks (benchmark/ documents its own harness and is not among them).
var flagDocs = []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"}

// flagDefiners are the flag and flag.FlagSet methods that register a flag,
// mapped to the index of the name argument: name, default and usage follow
// the pointer, if any.
var flagDefiners = map[string]int{
	"Bool": 0, "Duration": 0, "Float64": 0, "Int": 0, "Int64": 0, "String": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "Int64Var": 1, "IntVar": 1, "StringVar": 1,
}

// commandFlags reads, for every cmd/<name>/main.go under root, the literal
// names its flag registrations pass, plus h and help.
func commandFlags(root string) (map[string]map[string]bool, error) {
	mains, err := filepath.Glob(filepath.Join(root, "cmd", "*", "main.go"))
	if err != nil {
		return nil, err
	}
	out := map[string]map[string]bool{}
	for _, path := range mains {
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return nil, err
		}
		flags := map[string]bool{"h": true, "help": true}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if i, ok := flagDefiners[sel.Sel.Name]; ok && len(call.Args) == i+3 {
				if lit, ok := call.Args[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, _ := strconv.Unquote(lit.Value)
					flags[name] = true
				}
			}
			return true
		})
		out[filepath.Base(filepath.Dir(path))] = flags
	}
	return out, nil
}

// CheckDoc applies the flagdoc rule to one Markdown document. On every line
// of a fenced or indented code block (a trailing backslash continues it)
// and in every inline code span, a command whose command word names one of
// the commands in flags — `go run ./cmd/X`, `"$bin/X"`, `cmd/X` or a bare
// `X` — may pass only flags that command registers.
func CheckDoc(name string, src string, flags map[string]map[string]bool) []Finding {
	var out []Finding
	check := func(words []docWord) {
		cmd := ""
		for i, w := range words {
			switch {
			case w.text == "|" || w.text == ";" || w.text == "&":
				cmd = ""
			case i == 0 || strings.Contains("|;&", words[i-1].text) ||
				i >= 2 && words[i-2].text == "go" && words[i-1].text == "run":
				cmd = strings.Trim(w.text, `"'`)
				if cmd = cmd[strings.LastIndexByte(cmd, '/')+1:]; flags[cmd] == nil {
					cmd = ""
				}
			case cmd != "" && isFlag(w.text) && !flags[cmd][flagName(w.text)]:
				out = append(out, Finding{File: name, Line: w.line, Col: w.col, Rule: "flagdoc",
					Message: w.text + " is not a flag of " + cmd + " (cmd/" + cmd + "/main.go does not register it)"})
			}
		}
	}
	fenced := false
	var cont []docWord // the words of the lines a trailing backslash continues
	for n, line := range strings.Split(src, "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			fenced, cont = !fenced, nil
		case fenced || strings.HasPrefix(line, "    ") || strings.HasPrefix(line, "\t"):
			cont = append(cont, shellWords(line, n+1, 1)...)
			if k := len(cont) - 1; k >= 0 && cont[k].text == `\` {
				cont = cont[:k]
				continue
			}
			check(cont)
			cont = nil
		default:
			cont = nil
			spans := strings.Split(line, "`")
			for i, col := 1, len(spans[0])+2; i+1 < len(spans); i, col = i+2, col+len(spans[i])+len(spans[i+1])+2 {
				check(shellWords(spans[i], n+1, col))
			}
		}
	}
	return out
}

// docWord is one shell word of a document line, at its 1-based column.
type docWord struct {
	text      string
	line, col int
}

// shellWords splits a shell line into words, keeping quoted text inside its
// word; each of the control operators | ; & is a word of its own, and a word
// starting with # ends the line. col is the column of s[0].
func shellWords(s string, line, col int) []docWord {
	var words []docWord
	start, quote := -1, byte(0)
	end := func(i int) {
		if start >= 0 {
			words = append(words, docWord{s[start:i], line, col + start})
			start = -1
		}
	}
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == ' ' || c == '\t':
			end(i)
		case c == '|' || c == ';' || c == '&':
			end(i)
			words = append(words, docWord{s[i : i+1], line, col + i})
		case c == '#' && start < 0:
			return words
		default:
			if c == '\'' || c == '"' {
				quote = c
			}
			if start < 0 {
				start = i
			}
		}
	}
	end(len(s))
	return words
}

// isFlag reports whether a word is a -flag or --flag (not "-" or "-1").
func isFlag(word string) bool {
	name := strings.TrimLeft(word, "-")
	return name != word && name != "" && ('a' <= name[0] && name[0] <= 'z' || 'A' <= name[0] && name[0] <= 'Z')
}

// flagName strips a flag word's dashes and any =value.
func flagName(word string) string {
	name, _, _ := strings.Cut(strings.TrimLeft(word, "-"), "=")
	return name
}
