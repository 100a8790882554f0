package toolvet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// metricNamers are the calls whose first argument names a metric or a trace
// span: the registry's instruments, its help text and the tracer.
var metricNamers = map[string]bool{"Counter": true, "Gauge": true, "Histogram": true, "Describe": true, "Span": true}

// reportFile holds the benchmark's figure table; its Name: literals are
// names too. It is read, never written.
const reportFile = "benchmark/report.go"

// metricLiterals collects, from the non-test Go under root, every literal
// name the metricdoc rule resolves against: the first argument of a
// metricNamers call (the leftmost operand of "family." + label), the format
// of a fmt.Sprintf that builds a name from an index alone
// ("rtec.stratum.micros.s%d"), and every Name: of reportFile.
func metricLiterals(root string) (map[string]bool, error) {
	out := map[string]bool{}
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
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		report := filepath.ToSlash(path) == filepath.ToSlash(filepath.Join(root, reportFile))
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				switch fn := callName(n); {
				case metricNamers[fn] && len(n.Args) > 0:
					if name, ok := leftLiteral(n.Args[0]); ok {
						out[normMetric(name)] = true
					}
				case fn == "Sprintf" && len(n.Args) > 0:
					format, ok := leftLiteral(n.Args[0])
					if name := strings.ReplaceAll(format, "%d", "<>"); ok && isMetricName(name) {
						out[normMetric(name)] = true
					}
				}
			case *ast.KeyValueExpr:
				if key, ok := n.Key.(*ast.Ident); report && ok && key.Name == "Name" {
					if name, ok := leftLiteral(n.Value); ok {
						out[normMetric(name)] = true
					}
				}
			}
			return true
		})
		return nil
	})
	return out, err
}

// metricSeg is one segment of a documented name: lowercase word characters
// and <placeholders>, or a {a,b} list of alternatives.
const metricSeg = `(?:[a-z0-9_]|<[a-zA-Z]*>)+|\{[^{}]+\}`

var (
	// docMetric matches a metric name in prose: a dotted rtec./serve./stream.
	// name whose segments are lowercase words, <placeholders>, {a,b}
	// alternatives or a closing *, or the rtec_/serve_ scrape form. The
	// character before it must not continue a word or a path, so file names
	// like gold.rtec and Go identifiers like rtec.Options never match.
	docMetric   = regexp.MustCompile(`(?:^|[^A-Za-z0-9_./$-])((?:rtec|serve|stream)(?:\.(?:` + metricSeg + `))*\.(?:` + metricSeg + `|\*)|(?:rtec|serve)_(?:[a-z0-9_]|<[a-zA-Z]*>)+)`)
	placeholder = regexp.MustCompile(`<[^<>]*>`)
	codeSpan    = regexp.MustCompile("`(?:[^`\n]|\n[^`\n])+`")
)

// isMetricName reports whether s is one documented-name spelling, whole.
func isMetricName(s string) bool {
	m := docMetric.FindStringSubmatch(s)
	return m != nil && m[1] == s
}

// normMetric is a name as the rule compares it: placeholders as <>, and
// without the _total a counter gains in the exposition (CanonicalName).
func normMetric(name string) string {
	return strings.TrimSuffix(placeholder.ReplaceAllString(name, "<>"), "_total")
}

// expandBraces spells out every {a,b} alternative of a name.
func expandBraces(name string) []string {
	i := strings.IndexByte(name, '{')
	j := strings.IndexByte(name, '}')
	if i < 0 || j < i {
		return []string{name}
	}
	var out []string
	for _, alt := range strings.Split(name[i+1:j], ",") {
		out = append(out, expandBraces(name[:i]+strings.TrimSpace(alt)+name[j+1:])...)
	}
	return out
}

// metricResolves reports whether a documented name (normalised) is one of
// literals: equal to one, a dotted family above one (rtec.checkpoint.* or
// rtec.eval), or under a literal family prefix ("rtec.stratum.micros." + s).
// A scrape-form name compares with the literals' dots as underscores.
func metricResolves(name string, literals map[string]bool) bool {
	sep := "."
	if !strings.Contains(name, sep) {
		sep = "_"
	}
	name = strings.TrimSuffix(name, ".*")
	for lit := range literals {
		lit = strings.ReplaceAll(lit, ".", sep)
		if lit == name || strings.HasPrefix(lit, name+sep) || strings.HasSuffix(lit, sep) && strings.HasPrefix(name, lit) {
			return true
		}
	}
	return false
}

// CheckMetricDoc applies the metricdoc rule to one Markdown document: every
// metric name in an inline code span must resolve to one of literals (see
// metricLiterals). Code blocks are skipped; a span may break across lines
// but not across a paragraph.
func CheckMetricDoc(name, src string, literals map[string]bool) []Finding {
	// Empty the code-block lines, keeping every line break, so line numbers
	// and columns of prose stay what they are in src.
	var prose strings.Builder
	fenced := false
	for n, line := range strings.Split(src, "\n") {
		if n > 0 {
			prose.WriteByte('\n')
		}
		fence := strings.HasPrefix(strings.TrimSpace(line), "```")
		if fence {
			fenced = !fenced
		}
		if !fence && !fenced && !strings.HasPrefix(line, "    ") && !strings.HasPrefix(line, "\t") {
			prose.WriteString(line)
		}
	}
	text := prose.String()
	var out []Finding
	for _, span := range codeSpan.FindAllStringIndex(text, -1) {
		for _, m := range docMetric.FindAllStringSubmatchIndex(text[span[0]:span[1]], -1) {
			at := span[0] + m[2]
			for _, alt := range expandBraces(text[at : span[0]+m[3]]) {
				alt = strings.Join(strings.Fields(alt), "")
				if metricResolves(normMetric(alt), literals) {
					continue
				}
				out = append(out, Finding{File: name,
					Line: strings.Count(text[:at], "\n") + 1, Col: at - strings.LastIndexByte(text[:at], '\n'),
					Rule: "metricdoc", Message: strconv.Quote(alt) + " names no metric, span or benchmark figure in non-test Go"})
			}
		}
	}
	return out
}
