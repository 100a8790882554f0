// Package figures renders experiment results as plain-text figures (grouped
// horizontal bar charts and aligned tables), so the command-line tools can
// reproduce the look of the paper's Figure 2 in a terminal.
package figures

import (
	"fmt"
	"strings"
)

// Series is one line of bars across all groups (one model, in Figure 2).
type Series struct {
	Name   string
	Values []float64
}

// BarChart renders a grouped horizontal bar chart. Values are expected in
// [0, 1]; larger values are clipped. width is the length of a full bar.
func BarChart(title string, groups []string, series []Series, width int) string {
	if width <= 0 {
		width = 40
	}
	var b strings.Builder
	b.WriteString(title)
	b.WriteString("\n")
	nameWidth := 0
	for _, s := range series {
		if len(s.Name) > nameWidth {
			nameWidth = len(s.Name)
		}
	}
	for gi, g := range groups {
		fmt.Fprintf(&b, "%s\n", g)
		for _, s := range series {
			v := 0.0
			if gi < len(s.Values) {
				v = s.Values[gi]
			}
			fmt.Fprintf(&b, "  %-*s %s %.3f\n", nameWidth, s.Name, bar(v, width), v)
		}
	}
	return b.String()
}

func bar(v float64, width int) string {
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	full := int(v*float64(width) + 0.5)
	return strings.Repeat("█", full) + strings.Repeat("·", width-full)
}

// Table renders rows with aligned columns; the first row is the header and
// is underlined.
func Table(rows [][]string) string {
	if len(rows) == 0 {
		return ""
	}
	widths := make([]int, 0)
	for _, r := range rows {
		for i, c := range r {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(r []string) {
		for i, c := range r {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(rows[0])
	total := 0
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total+2*(len(widths)-1)))
	b.WriteString("\n")
	for _, r := range rows[1:] {
		writeRow(r)
	}
	return b.String()
}

// CSV renders rows as comma-separated values (no quoting; callers pass
// simple labels and numbers).
func CSV(rows [][]string) string {
	var b strings.Builder
	for _, r := range rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteString("\n")
	}
	return b.String()
}
