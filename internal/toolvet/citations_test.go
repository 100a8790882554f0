package toolvet

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// designCite is a citation of a DESIGN.md section, optionally followed by
// the quoted name of a paragraph or subsection inside it; experimentsCite
// names a record of EXPERIMENTS.md by (part of) its heading.
var (
	designCite      = regexp.MustCompile(`DESIGN\.md,? §(\d+)(?: "([^"<]+)")?`)
	experimentsCite = regexp.MustCompile(`EXPERIMENTS\.md "([^"<]+)"`)
	// lineBreak joins a wrapped line to the next, dropping the comment
	// marker a Go or shell continuation line starts with.
	lineBreak = regexp.MustCompile(`[ \t]*\n[ \t]*(?:(?://|#)[ \t]*)?`)
	heading   = regexp.MustCompile(`(?m)^#+ (.+)$`)
	bold      = regexp.MustCompile(`\*\*([^*]+)\*\*`)
	section   = regexp.MustCompile(`(?m)^## (\d+)\. `)
)

// TestDocCitationsResolve: every DESIGN.md §N citation in the Go sources,
// ci.sh, the kept top-level documents and the verify skill names a section
// DESIGN.md still has, a quoted name after it a heading or a bold paragraph
// lead of that section, and every EXPERIMENTS.md "<name>" citation a heading
// of EXPERIMENTS.md. Merging or renaming a section is how citations dangle.
func TestDocCitationsResolve(t *testing.T) {
	root := filepath.Join("..", "..")
	design := readDoc(t, filepath.Join(root, "DESIGN.md"))
	sections := designSections(design)
	if len(sections) == 0 {
		t.Fatal("DESIGN.md has no numbered sections")
	}
	var expHeadings []string
	for _, m := range heading.FindAllStringSubmatch(readDoc(t, filepath.Join(root, "EXPERIMENTS.md")), -1) {
		expHeadings = append(expHeadings, m[1])
	}

	files := citingFiles(t, root)
	cites := 0
	for _, path := range files {
		rel, _ := filepath.Rel(root, path)
		text := lineBreak.ReplaceAllString(readDoc(t, path), " ")
		for _, m := range designCite.FindAllStringSubmatch(text, -1) {
			cites++
			n, _ := strconv.Atoi(m[1])
			names, ok := sections[n]
			switch {
			case !ok:
				t.Errorf("%s: DESIGN.md §%d does not exist", rel, n)
			case m[2] != "" && !hasPrefixed(names, m[2]):
				t.Errorf("%s: DESIGN.md §%d has no heading or paragraph %q", rel, n, m[2])
			}
		}
		for _, m := range experimentsCite.FindAllStringSubmatch(text, -1) {
			cites++
			if !containsWord(expHeadings, m[1]) {
				t.Errorf("%s: EXPERIMENTS.md has no heading %q", rel, m[1])
			}
		}
	}
	if cites == 0 {
		t.Fatalf("no citation found in %d files", len(files))
	}
}

// designSections maps each numbered section of DESIGN.md to the names a
// citation may give inside it: its subsection headings and the bold leads
// of its paragraphs and list items, trailing punctuation cut.
func designSections(doc string) map[int][]string {
	out := map[int][]string{}
	locs := section.FindAllStringSubmatchIndex(doc, -1)
	for i, loc := range locs {
		n, _ := strconv.Atoi(doc[loc[2]:loc[3]])
		end := len(doc)
		if i+1 < len(locs) {
			end = locs[i+1][0]
		}
		body := doc[loc[1]:end]
		var names []string
		for _, m := range heading.FindAllStringSubmatch(body, -1) {
			names = append(names, m[1])
		}
		for _, m := range bold.FindAllStringSubmatch(body, -1) {
			names = append(names, strings.TrimRight(m[1], ".:"))
		}
		out[n] = names
	}
	return out
}

// keptDocs are the top-level documents the project maintains. A task
// description for a change in progress is not one of them: it may cite the
// EXPERIMENTS.md record that the same change is about to write.
var keptDocs = map[string]bool{
	"README.md": true, "DESIGN.md": true, "EXPERIMENTS.md": true, "ROADMAP.md": true,
	"CHANGES.md": true, "PAPER.md": true, "PAPERS.md": true, "SNIPPETS.md": true,
}

// citingFiles lists the files whose citations are checked: every Go source
// outside testdata and hidden directories, ci.sh, the kept top-level
// documents and the verify skill.
func citingFiles(t *testing.T, root string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || (filepath.Dir(path) == root && (name == "ci.sh" || keptDocs[name])) {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return append(files, filepath.Join(root, ".claude", "skills", "verify", "SKILL.md"))
}

func readDoc(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func hasPrefixed(names []string, name string) bool {
	for _, n := range names {
		if strings.HasPrefix(n, name) {
			return true
		}
	}
	return false
}

// containsWord reports whether some heading contains name not followed by
// a letter or digit, so "PR 2" does not resolve to "(PR 25)".
func containsWord(headings []string, name string) bool {
	re := regexp.MustCompile(regexp.QuoteMeta(name) + `([^0-9A-Za-z]|$)`)
	for _, h := range headings {
		if re.MatchString(h) {
			return true
		}
	}
	return false
}
