// Command vet-rtec runs the repository's vet checks (internal/toolvet) over
// a directory tree, in non-test code: no time.Now/time.Sleep outside
// internal/clock, no package-level math/rand calls, and — when the tree is
// the repository root — no metric name that every file of toolvet's
// consumerFiles (ci.sh, the contract tests, cmd/rtectop/main.go, README.md,
// ...) fails to mention, no flag a document passes that its binary does not
// register, no metric name a document spells that no non-test Go literal
// registers, no CHANGES.md line over 300 characters, and no frozen stub that
// benchmark/ no longer references.
//
// Usage:
//
//	vet-rtec [dir ...]
//
// With no arguments the current directory is checked. Findings print one
// per line as file:line:col: rule: message. The frozen ledger — every stub
// kept only for benchmark/ — prints to standard error, one line per stub, as
// vet-rtec: frozen: file:line: name.
//
// Exit status:
//
//	0  no findings
//	1  at least one finding
//	2  usage, I/O or parse error
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"rtecgen/internal/toolvet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vet-rtec", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	roots := fs.Args()
	if len(roots) == 0 {
		roots = []string{"."}
	}
	total := 0
	for _, root := range roots {
		findings, err := toolvet.CheckDir(root)
		if err != nil {
			fmt.Fprintln(stderr, "vet-rtec:", err)
			return 2
		}
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
		ledger, err := toolvet.FrozenLedger(root)
		if err != nil {
			fmt.Fprintln(stderr, "vet-rtec:", err)
			return 2
		}
		for _, s := range ledger {
			fmt.Fprintf(stderr, "vet-rtec: frozen: %s:%d: %s\n", s.File, s.Line, s.Name)
		}
		total += len(findings)
	}
	if total > 0 {
		fmt.Fprintf(stderr, "vet-rtec: %d findings\n", total)
		return 1
	}
	return 0
}
