package toolvet

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// changesFile is the change log, relative to the repository root: one line
// per change. What a change did in detail lives in its commit, DESIGN.md and
// EXPERIMENTS.md, so a line stays a summary a reader can take in at once.
const changesFile = "CHANGES.md"

// maxChangesLine is the most characters the changesline rule lets one line
// of the change log carry.
const maxChangesLine = 300

// CheckChanges applies the changesline rule to the change log: every line
// longer than maxChangesLine characters is a finding.
func CheckChanges(name, src string) []Finding {
	var out []Finding
	for n, line := range strings.Split(src, "\n") {
		if k := utf8.RuneCountInString(line); k > maxChangesLine {
			out = append(out, Finding{File: name, Line: n + 1, Col: maxChangesLine + 1, Rule: "changesline",
				Message: fmt.Sprintf("line is %d characters, over %d: summarise the change in one short line", k, maxChangesLine)})
		}
	}
	return out
}
