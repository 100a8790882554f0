package main

import (
	"strings"
	"testing"

	"rtecgen/internal/analysis"
)

func TestParseSeverity(t *testing.T) {
	for s, want := range map[string]analysis.Severity{
		"info": analysis.Info, "warning": analysis.Warning, "error": analysis.Error,
	} {
		got, err := parseSeverity(s)
		if err != nil || got != want {
			t.Errorf("parseSeverity(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := parseSeverity("fatal"); err == nil {
		t.Error("parseSeverity(fatal) should fail")
	}
}

func TestFailThreshold(t *testing.T) {
	never := analysis.Error + 1
	cases := []struct {
		failOn, maxSev string
		want           analysis.Severity
		wantErr        bool
	}{
		{"error", "", analysis.Error, false},
		{"warning", "", analysis.Warning, false},
		{"never", "", never, false},
		{"info", "", 0, true},
		{"bogus", "", 0, true},
		// -max-severity wins over -fail-on.
		{"error", "info", analysis.Warning, false},
		{"error", "warning", analysis.Error, false},
		{"warning", "error", never, false},
		{"error", "bogus", 0, true},
	}
	for _, c := range cases {
		got, err := failThreshold(c.failOn, c.maxSev)
		if (err != nil) != c.wantErr || (err == nil && got != c.want) {
			t.Errorf("failThreshold(%q, %q) = %v, %v; want %v, err=%v",
				c.failOn, c.maxSev, got, err, c.want, c.wantErr)
		}
	}
}

func TestDomainOptions(t *testing.T) {
	for _, name := range []string{"maritime", "fleet"} {
		opts, err := domainOptions(name)
		if err != nil {
			t.Fatalf("domainOptions(%s): %v", name, err)
		}
		if len(opts.Vocabulary) == 0 || len(opts.Roots) == 0 || len(opts.Sorts) == 0 || opts.Rename == nil {
			t.Errorf("domainOptions(%s) incomplete: %d vocab, %d roots, %d sorts",
				name, len(opts.Vocabulary), len(opts.Roots), len(opts.Sorts))
		}
	}
	if opts, err := domainOptions(""); err != nil || opts.Vocabulary != nil {
		t.Errorf("empty domain should give bare options, got %v, %v", opts, err)
	}
	if _, err := domainOptions("aviation"); err == nil {
		t.Error("unknown domain should fail")
	}
}

func TestPrintCodes(t *testing.T) {
	var b strings.Builder
	printCodes(&b)
	out := b.String()
	for _, code := range []string{"R000", "R001", "R010", "R011", "R016"} {
		if !strings.Contains(out, code) {
			t.Errorf("code listing missing %s:\n%s", code, out)
		}
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 17 {
		t.Errorf("want 17 documented codes:\n%s", out)
	}
}

// lint drives the full CLI against stdin and returns exit status and both
// output streams.
func lint(t *testing.T, args []string, stdin string) (int, string, string) {
	t.Helper()
	var out, errOut strings.Builder
	code := run(args, strings.NewReader(stdin), &out, &errOut)
	return code, out.String(), errOut.String()
}

const badSrc = `inputEvent(ping(_)).
inputEvent(pong(_)).

initiatedAt(f(V)=true, T) :-
    happensAt(ping(V), T),
    holdsAt(g(V)=true, T),
    holdsAt(g(V)=true, T).

terminatedAt(f(V)=true, T) :-
    happensAt(pong(V), T).

initiatedAt(g(V)=true, T) :-
    happensAt(ping(V), T).

terminatedAt(g(V)=true, T) :-
    happensAt(pong(V), T).
`

func TestRunExitCodes(t *testing.T) {
	// The duplicated condition is a warning: clean at the default -fail-on
	// error, failing at -fail-on warning and at -max-severity info.
	if code, _, _ := lint(t, nil, badSrc); code != 0 {
		t.Errorf("default threshold: exit %d, want 0", code)
	}
	if code, _, _ := lint(t, []string{"-fail-on", "warning"}, badSrc); code != 1 {
		t.Errorf("-fail-on warning: exit %d, want 1", code)
	}
	if code, _, _ := lint(t, []string{"-max-severity", "info"}, badSrc); code != 1 {
		t.Errorf("-max-severity info: exit %d, want 1", code)
	}
	if code, _, _ := lint(t, []string{"-max-severity", "error", "-fail-on", "warning"}, badSrc); code != 0 {
		t.Errorf("-max-severity error must override -fail-on: exit %d, want 0", code)
	}
	if code, _, _ := lint(t, []string{"-domain", "aviation"}, ""); code != 2 {
		t.Error("usage errors must exit 2")
	}
	if code, _, _ := lint(t, []string{"no-such-file.prolog"}, ""); code != 2 {
		t.Error("I/O errors must exit 2")
	}
}

func TestRunFix(t *testing.T) {
	code, out, errOut := lint(t, []string{"-fix", "-max-severity", "info"}, badSrc)
	if code != 0 {
		t.Errorf("fixable input: exit %d, want 0\nstderr:\n%s", code, errOut)
	}
	if strings.Count(out, "holdsAt(g(V)=true, T)") != 1 {
		t.Errorf("duplicate condition not fixed:\n%s", out)
	}
	if strings.Contains(out, "warning") {
		t.Errorf("diagnostics leaked onto stdout:\n%s", out)
	}
}

func TestRunDiff(t *testing.T) {
	code, out, _ := lint(t, []string{"-diff"}, badSrc)
	if code != 0 {
		t.Errorf("exit %d, want 0", code)
	}
	if !strings.Contains(out, "--- <stdin>") || !strings.Contains(out, "-    holdsAt(g(V)=true, T),") {
		t.Errorf("diff output wrong:\n%s", out)
	}
}

func TestRunFixWithDomainRenames(t *testing.T) {
	src := `initiatedAt(gap(Vl)=nearPorts, T) :-
    happensAt(gapStart(Vl), T).
`
	code, out, _ := lint(t, []string{"-fix", "-domain", "maritime"}, src)
	if code != 0 {
		t.Errorf("exit %d, want 0", code)
	}
	if !strings.Contains(out, "gap_start(Vl)") {
		t.Errorf("typo'd event not renamed:\n%s", out)
	}
}

func TestRunJSON(t *testing.T) {
	code, out, _ := lint(t, []string{"-json", "-fail-on", "warning"}, badSrc)
	if code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if !strings.Contains(out, `"R014"`) || !strings.Contains(out, `"suggestedFixes"`) {
		t.Errorf("JSON output missing diagnostics or fixes:\n%s", out)
	}
}

// TestRunGold is the gold lint gate: the embedded gold standards of both
// domains lint diagnostic-free at the strictest threshold, and -gold
// without a domain is a usage error.
func TestRunGold(t *testing.T) {
	for _, domain := range []string{"maritime", "fleet"} {
		code, out, errOut := lint(t, []string{"-gold", "-domain", domain, "-max-severity", "info"}, "")
		if code != 0 {
			t.Errorf("%s gold: exit %d\n%s%s", domain, code, out, errOut)
		}
		if !strings.Contains(out, "0 diagnostics") {
			t.Errorf("%s gold: %s", domain, out)
		}
	}
	if code, _, _ := lint(t, []string{"-gold"}, ""); code != 2 {
		t.Error("-gold without -domain must exit 2")
	}
}
