package toolvet

import (
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

// TestSignalRule: a literal a consumer names (dotted or in scrape form) and
// a family a consumer covers pass; a literal nothing reads is a finding.
func TestSignalRule(t *testing.T) {
	consumers := "grep -q '^counter rtec.windows.evaluated_total' m.txt\n" +
		"line(\"restarts\", \"rtec_shard_restarts_total\")\n" +
		"`rtec.stratum.micros.<s>` and the `rtec.checkpoint.*` counters\n"
	fs, err := CheckSource("a.go", []byte(`package a
func f(tel T, k int, label string) {
	tel.Counter("rtec.windows.evaluated").Inc()
	tel.Counter("rtec.shard.restarts").Inc()
	tel.Gauge("rtec.stratum.micros." + label).Set(1)
	tel.Registry.Histogram("rtec.checkpoint.write_micros", nil).Observe(1)
	tel.Gauge(shardMetric(k, "restarts")).Set(1)
	tel.Counter("rtec.fvps.grounded").Inc()
	tel.Counter("llm.calls." + label).Inc()
	tel.Gauge(shardMetric(k, "queue.ghost")).Set(1)
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
		`a.go:8:14: signal: "rtec.fvps.grounded" has no consumer`,
		`a.go:9:14: signal: "llm.calls." has no consumer`,
		`a.go:10:27: signal: "queue.ghost" has no consumer`,
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
// repository must carry no unjustified determinism hazard and no signal
// without a consumer.
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
