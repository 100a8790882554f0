// Command simeval computes the paper's similarity metric (Section 4)
// between two RTEC event descriptions: the distance of Definition 4.14 over
// their temporal rules, and the per-rule optimal matching.
//
// Usage:
//
//	simeval [-rules] candidate.rtec gold.rtec
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"rtecgen/internal/lang"
	"rtecgen/internal/parser"
	"rtecgen/internal/similarity"
)

func main() {
	perRule := flag.Bool("rules", false, "also print the best-matching gold rule per candidate rule")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: simeval [-rules] candidate.rtec gold.rtec")
		os.Exit(2)
	}
	if err := run(os.Stdout, flag.Arg(0), flag.Arg(1), *perRule); err != nil {
		fmt.Fprintln(os.Stderr, "simeval:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, candPath, goldPath string, perRule bool) error {
	cand, err := load(candPath)
	if err != nil {
		return err
	}
	gold, err := load(goldPath)
	if err != nil {
		return err
	}
	ref := similarity.NewReference(gold.Rules())
	d, err := ref.Distance(ref.Rules(), cand.Rules())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "distance   = %.4f\n", d)
	fmt.Fprintf(w, "similarity = %.4f\n", 1-d)
	if !perRule {
		return nil
	}
	if len(ref.Rules()) == 0 {
		fmt.Fprintf(w, "\n%s has no temporal rule to match the candidate's rules against\n", goldPath)
		return nil
	}
	for _, cr := range cand.Rules() {
		// The headline distance has already scored this rule against every
		// gold rule: its row is a table lookup.
		row, err := ref.Row(cr)
		if err != nil {
			return err
		}
		best := 0
		for i, rd := range row {
			if rd < row[best] {
				best = i
			}
		}
		fmt.Fprintf(w, "\n%s\n  closest gold rule: %s (distance %.4f)\n", cr.Head, ref.Rules()[best].Head, row[best])
	}
	return nil
}

func load(path string) (*lang.EventDescription, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ed, err := parser.ParseEventDescription(string(src))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ed, nil
}
