package toolvet

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func check(t *testing.T, name, src string) []Finding {
	t.Helper()
	fs, err := CheckSource(name, []byte(src), "")
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestWallClockCallFlagged(t *testing.T) {
	fs := check(t, "a.go", `package a
import "time"
func f() time.Time { return time.Now() }
func g() { time.Sleep(time.Second) }
`)
	if len(fs) != 2 || fs[0].Rule != "wallclock" || fs[1].Rule != "wallclock" {
		t.Fatalf("got %v", fs)
	}
	if fs[0].Line != 3 || fs[1].Line != 4 {
		t.Fatalf("wrong positions: %v", fs)
	}
}

func TestWallClockReferenceFlagged(t *testing.T) {
	fs := check(t, "a.go", `package a
import "time"
var now = time.Now
`)
	if len(fs) != 1 || fs[0].Rule != "wallclock" {
		t.Fatalf("passing time.Now as a value must be flagged: %v", fs)
	}
}

func TestBenignTimeUsageClean(t *testing.T) {
	fs := check(t, "a.go", `package a
import "time"
func f(d time.Duration) time.Time { var t time.Time; return t.Add(d) }
`)
	if len(fs) != 0 {
		t.Fatalf("benign time usage flagged: %v", fs)
	}
}

func TestUnseededRandFlaggedSeededAllowed(t *testing.T) {
	fs := check(t, "a.go", `package a
import "math/rand"
func f() int { return rand.Intn(6) }
func g(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
func h(r *rand.Rand) float64 { return r.Float64() }
`)
	if len(fs) != 1 || fs[0].Rule != "unseededrand" || fs[0].Line != 3 {
		t.Fatalf("got %v", fs)
	}
}

func TestAliasedImports(t *testing.T) {
	fs := check(t, "a.go", `package a
import (
	stdtime "time"
	mrand "math/rand"
)
func f() stdtime.Time { return stdtime.Now() }
func g() int { return mrand.Int() }
`)
	if len(fs) != 2 {
		t.Fatalf("aliased imports must still be flagged: %v", fs)
	}
}

func TestShadowedNameNotFlagged(t *testing.T) {
	fs := check(t, "a.go", `package a
type fake struct{}
func (fake) Now() int { return 0 }
func f() int {
	time := fake{}
	return time.Now()
}
`)
	if len(fs) != 0 {
		t.Fatalf("shadowed name flagged: %v", fs)
	}
}

func TestAllowDirective(t *testing.T) {
	fs := check(t, "a.go", `package a
import "time"
func f() time.Time {
	return time.Now() //rtecvet:allow measuring real wall-clock for metrics
}
func g() time.Time {
	//rtecvet:allow startup timestamp shown to the user
	return time.Now()
}
`)
	if len(fs) != 0 {
		t.Fatalf("justified sites must be suppressed: %v", fs)
	}
}

func TestAllowDirectiveNeedsReason(t *testing.T) {
	fs := check(t, "a.go", `package a
import "time"
func f() time.Time {
	return time.Now() //rtecvet:allow
}
`)
	if len(fs) != 1 {
		t.Fatalf("a bare directive must not suppress: %v", fs)
	}
}

func TestExempt(t *testing.T) {
	cases := map[string]bool{
		"internal/rtec/engine_test.go":  true,
		"internal/clock/clock.go":       true,
		"internal/clock/virtual.go":     true,
		"internal/rtec/testdata/x.go":   true,
		"vendor/dep/a.go":               true,
		"internal/rtec/engine.go":       false,
		"cmd/experiments/main.go":       false,
		"internal/clockwork/tick.go":    false,
		"internal/telemetry/urclock.go": false,
	}
	for path, want := range cases {
		if got := Exempt(path); got != want {
			t.Errorf("Exempt(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestSignalRule: a literal a consumer names (dotted or in scrape form)
// passes; a literal nothing reads is a finding, which names every consumer
// file, the contract tests among them. A "<prefix>.*" family mention reads
// no name below the prefix.
func TestSignalRule(t *testing.T) {
	consumers := "grep -q '^counter rtec.windows.evaluated_total' m.txt\n" +
		"line(\"restarts\", \"rtec_shard_restarts_total\")\n" +
		"`rtec.stratum.micros.<s>` and the `rtec.checkpoint.*` counters\n"
	fs, err := CheckSource("a.go", []byte(`package a
func f(tel T, label string) {
	tel.Counter("rtec.windows.evaluated").Inc()
	tel.Counter("rtec.shard.restarts").Inc()
	tel.Gauge("rtec.stratum.micros." + label).Set(1)
	tel.Registry.Histogram("rtec.checkpoint.write_micros", nil).Observe(1)
	tel.Counter("rtec.fvps.grounded").Inc()
	tel.Counter("llm.calls." + label).Inc()
	tel.Counter(computed()).Inc()
}
`), consumers)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range fs {
		if f.Rule != "signal" {
			t.Fatalf("unexpected rule: %v", f)
		}
		got = append(got, f.String())
	}
	want := []string{
		`a.go:6:25: signal: "rtec.checkpoint.write_micros" has no consumer`,
		`a.go:7:14: signal: "rtec.fvps.grounded" has no consumer in ci.sh, cmd/rtec/contract_test.go, ` +
			`internal/rtec/contract_test.go, internal/eval/accuracy_test.go, cmd/rtectop/main.go, README.md`,
		`a.go:8:14: signal: "llm.calls." has no consumer`,
	}
	if len(got) != len(want) {
		t.Fatalf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for i := range want {
		if !strings.HasPrefix(got[i], want[i]) {
			t.Errorf("finding %d = %q, want prefix %q", i, got[i], want[i])
		}
	}
}

// TestRepositoryIsClean is the gate the ci script relies on: the whole
// repository must carry no unjustified determinism hazard, no signal
// without a consumer, no documented flag a binary lacks and no overlong
// change-log line.
func TestRepositoryIsClean(t *testing.T) {
	findings, err := CheckDir("../..")
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, f := range findings {
		lines = append(lines, f.String())
	}
	if len(findings) != 0 {
		t.Fatalf("vet findings:\n%s", strings.Join(lines, "\n"))
	}
}

// TestFlagDocRule: flags are read from a command's flag registrations, and
// a document may name on a command line only flags its command registers:
// in a fenced block (continuation lines joined), an indented block, or an
// inline code span, whichever way the command is spelled.
func TestFlagDocRule(t *testing.T) {
	root := t.TempDir()
	for path, src := range map[string]string{
		"cmd/rtec/main.go": `package main
import "flag"
func main() {
	var w int
	flag.IntVar(&w, "window", 0, "window")
	csv := flag.Bool("csv", false, "csv")
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	fs.String("max-delay", "", "delay")
	_ = sb.String()
	x.Int("resume")
	_, _ = csv, fs
}
`,
		"cmd/gen/main.go": "package main\nimport \"flag\"\nvar m = flag.String(\"model\", \"o1\", \"model\")\n",
		"README.md": "# Doc\n" +
			"```\n" +
			"go run ./cmd/rtec -window 3600 \\\n" +
			"    -shards 4 -csv > out.csv   # -comment is not a flag\n" +
			"\"$bin/rtec\" --window=5 -workers 8 -h | go run ./cmd/gen -model o1 -window 1\n" +
			"go test ./cmd/rtec -run TestX -v\n" +
			"```\n" +
			"\n" +
			"      $tmp/rtec -max-delay 900 -resume\n" +
			"Prose: `cmd/rtec -journal` and `rtec -csv`, `-shards` alone, `rtec.Options{}`.\n",
	} {
		if err := os.MkdirAll(filepath.Join(root, filepath.Dir(path)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, path), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	findings, err := CheckDir(root)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, strings.TrimPrefix(f.String(), root+string(filepath.Separator)))
	}
	want := []string{
		"README.md:4:5: flagdoc: -shards is not a flag of rtec",
		"README.md:5:24: flagdoc: -workers is not a flag of rtec",
		"README.md:5:67: flagdoc: -window is not a flag of gen",
		"README.md:9:32: flagdoc: -resume is not a flag of rtec",
		"README.md:10:18: flagdoc: -journal is not a flag of rtec",
	}
	if len(got) != len(want) {
		t.Fatalf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for i := range want {
		if !strings.HasPrefix(got[i], want[i]) {
			t.Errorf("finding %d = %q, want prefix %q", i, got[i], want[i])
		}
	}
}

// TestFlagDocRuleReadsCommandDocs: a command's package doc comment is held
// to the flags as a document is — its tab-indented lines as a code block,
// its backquoted spans as inline code — at the finding's place in main.go.
func TestFlagDocRuleReadsCommandDocs(t *testing.T) {
	root := t.TempDir()
	for path, src := range map[string]string{
		"cmd/rtec/main.go": "// Command rtec runs `rtec -window W`.\n" +
			"//\n" +
			"//\trtec -ed rules.rtec -window W -resume\n" +
			"package main\n" +
			"import \"flag\"\n" +
			"var ed = flag.String(\"ed\", \"\", \"ed\")\n" +
			"var w = flag.Int(\"window\", 0, \"window\")\n",
		"cmd/disorder/main.go": "// Command disorder shuffles a stream; replayed through\n" +
			"// `rtec -max-delay`, it converges.\n" +
			"package main\n" +
			"import \"flag\"\n" +
			"var d = flag.Int(\"max-delay\", 0, \"delay\")\n",
	} {
		if err := os.MkdirAll(filepath.Join(root, filepath.Dir(path)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, path), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	findings, err := CheckDir(root)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, strings.TrimPrefix(f.String(), root+string(filepath.Separator)))
	}
	want := []string{
		"cmd/disorder/main.go:2:10: flagdoc: -max-delay is not a flag of rtec",
		"cmd/rtec/main.go:3:34: flagdoc: -resume is not a flag of rtec",
	}
	if len(got) != len(want) {
		t.Fatalf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for i := range want {
		if !strings.HasPrefix(got[i], want[i]) {
			t.Errorf("finding %d = %q, want prefix %q", i, got[i], want[i])
		}
	}
}

// TestChangesLineRule: a change-log line of 300 characters passes, one of
// 301 is a finding at its line; characters are counted, not bytes.
func TestChangesLineRule(t *testing.T) {
	src := strings.Repeat("é", 300) + "\n" + strings.Repeat("x", 301) + "\n\nshort\n"
	got := CheckChanges("CHANGES.md", src)
	if len(got) != 1 {
		t.Fatalf("findings %v, want exactly one", got)
	}
	if want := "CHANGES.md:2:301: changesline: line is 301 characters, over 300"; !strings.HasPrefix(got[0].String(), want) {
		t.Fatalf("finding %q, want prefix %q", got[0], want)
	}
}

// TestMetricDocRule: a metric name in a document's code span must be a
// literal of non-test Go — a registry or tracer call, an index-only Sprintf
// format or a benchmark figure — in any of the
// spellings the documents use. A name only a test registers, like a deleted
// counter a test still reads, fails.
func TestMetricDocRule(t *testing.T) {
	// The shard kill counter, which the supervisor no longer has; assembled
	// so a search of the code for leftovers of it does not find this fixture.
	gone := "rtec.shard" + ".kills"
	goneScrape := strings.ReplaceAll(gone, ".", "_") + "_total"
	root := t.TempDir()
	for path, src := range map[string]string{
		"internal/shard/shard.go": `package shard
import "fmt"
func f(reg R, tr T, k int, s string) {
	reg.Counter("rtec.shard.restarts").Inc()
	reg.Describe("rtec.shard.degraded", "help")
	reg.Histogram("rtec.stratum.micros." + s)
	reg.Gauge("rtec.shard.queue.depth")
	tr.Span("rtec.window")
	_ = fmt.Sprintf("rtec.level.s%d", k)
}
`,
		"internal/shard/shard_test.go": "package shard\nfunc g(reg R) { reg.Counter(\"" + gone + "\").Inc() }\n",
		"benchmark/report.go": `package main
var figures = []figure{{Name: "rtec.eval.ns_per_event"}}
`,
	} {
		if err := os.MkdirAll(filepath.Join(root, filepath.Dir(path)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, path), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	literals, err := metricLiterals(root)
	if err != nil {
		t.Fatal(err)
	}
	doc := "# Doc\n" +
		"Counters `rtec.shard.{restarts," + gone[len("rtec.shard."):] + "}` and `rtec_shard_restarts_total`;\n" +
		"Engine `rtec.shard.{queue.depth,\n" +
		"windows}`, `rtec_shard_queue_depth`; `rtec.stratum.micros.s<N>`, `rtec.level.s<N>`,\n" +
		"the `rtec.window` span, `rtec.shard.*`, the `rtec.eval` rung; `rtec.Options`, `$tmp/gold.rtec`.\n" +
		"```\n" +
		"rtectop -require '" + goneScrape + ">0'   # `" + gone + "` in a code block\n" +
		"```\n" +
		"    `" + gone + "` indented\n" +
		"Gone: `" + gone + "` and `" + goneScrape + ">0`.\n"
	var got []string
	for _, f := range CheckMetricDoc("README.md", doc, literals) {
		got = append(got, f.String())
	}
	want := []string{
		`README.md:2:11: metricdoc: "` + gone + `" names no metric`,
		`README.md:3:9: metricdoc: "rtec.shard.windows" names no metric`,
		`README.md:10:8: metricdoc: "` + gone + `" names no metric`,
		`README.md:10:31: metricdoc: "` + goneScrape + `" names no metric`,
	}
	if len(got) != len(want) {
		t.Fatalf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for i := range want {
		if !strings.HasPrefix(got[i], want[i]) {
			t.Errorf("finding %d = %q, want prefix %q", i, got[i], want[i])
		}
	}
}

// TestFrozenRule: the ledger lists every frozen marker — on a struct field
// and on a flag registration — and the rule finds exactly the ones
// benchmark/ no longer references: an identifier it uses and a flag it
// passes are no finding, an identifier and a flag it dropped are one each.
func TestFrozenRule(t *testing.T) {
	root := t.TempDir()
	for path, src := range map[string]string{
		"internal/x/x.go": "package x\n" +
			"type Options struct {\n" +
			"\t// Workers does nothing.\n" +
			"\t//\n" +
			"\t// frozen: read only by benchmark/ (ROADMAP 21)\n" +
			"\tWorkers int\n" +
			"\t// frozen: read only by benchmark/ (ROADMAP 21)\n" +
			"\tShards int\n" +
			"}\n",
		"cmd/y/main.go": "package main\n" +
			"import \"flag\"\n" +
			"func main() {\n" +
			"\tvar n int\n" +
			"\t// frozen: read only by benchmark/ (ROADMAP 21)\n" +
			"\tflag.IntVar(&n, \"workers\", 0, \"ignored\")\n" +
			"\t// frozen: read only by benchmark/ (ROADMAP 21)\n" +
			"\tflag.IntVar(&n, \"shards\", 1, \"ignored\")\n" +
			"\tflag.Parse()\n" +
			"}\n",
		"benchmark/b.go": "package main\n" +
			"import \"x\"\n" +
			"var opts = x.Options{Workers: 1}\n" +
			"var args = []string{\"-workers\", \"0\"}\n",
	} {
		if err := os.MkdirAll(filepath.Join(root, filepath.Dir(path)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, path), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ledger, err := FrozenLedger(root)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range ledger {
		names = append(names, fmt.Sprintf("%s:%d %s", strings.TrimPrefix(s.File, root+string(filepath.Separator)), s.Line, s.Name))
	}
	if got, want := strings.Join(names, ", "), "cmd/y/main.go:5 -workers, cmd/y/main.go:7 -shards, internal/x/x.go:5 Workers, internal/x/x.go:7 Shards"; got != want {
		t.Fatalf("ledger = %s\nwant     %s", got, want)
	}
	findings, err := CheckDir(root)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, strings.TrimPrefix(f.String(), root+string(filepath.Separator)))
	}
	want := []string{
		"cmd/y/main.go:7:1: frozen: -shards is frozen for benchmark/, which no longer references it: delete the stub",
		"internal/x/x.go:7:1: frozen: Shards is frozen for benchmark/, which no longer references it: delete the stub",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
