// Deterministic chaos test: a full Teach+Generate run over the fault
// injector and the resilient transport, with a fixed seed and a virtual
// clock. Every assertion below pins an exact value — retry counts, breaker
// transitions, the degraded-activity set — because the whole stack is
// seeded: if any of these drift, determinism (and with it the ci.sh chaos
// gate) is broken.
package resilient_test

import (
	"reflect"
	"testing"
	"time"

	"rtecgen/internal/clock"
	"rtecgen/internal/llm"
	"rtecgen/internal/llm/fault"
	"rtecgen/internal/llm/resilient"
	"rtecgen/internal/maritime"
	"rtecgen/internal/prompt"
	"rtecgen/internal/telemetry"
)

// chaosProfile keeps teach calls overwhelmingly likely to survive four
// attempts while still producing retries, then takes the backend down for
// good mid-generation so the breaker must trip and the tail of the
// curriculum degrades.
var chaosProfile = fault.Profile{
	Transient: 0.20, RateLimit: 0.10, Timeout: 0.05,
	Truncate: 0.05, Garble: 0.05,
	RetryAfter: 250 * time.Millisecond, HangFor: 2 * time.Second,
	OutageAfter: 20,
}

type chaosRun struct {
	err        error
	degraded   []string
	covOK      int
	covTotal   int
	retries    int64
	opens      int64
	rejected   int64
	degradedN  int64
	transition []string
}

func runChaos(t *testing.T, seed int64) chaosRun {
	t.Helper()
	reg := telemetry.NewRegistry()
	tel := telemetry.New(reg, nil, nil)
	clk := clock.NewVirtual(time.Unix(0, 0))
	base := llm.MustNew("o1")
	r := resilient.Wrap(fault.Inject(base, chaosProfile, seed, clk, tel),
		resilient.Config{Clock: clk, Seed: seed, Telemetry: tel})

	gen, err := prompt.RunPipelineWith(tel, r, prompt.FewShot, maritime.PromptDomain(), maritime.CurriculumRequests())
	out := chaosRun{err: err, transition: r.Transitions()}
	if gen != nil {
		out.degraded = gen.DegradedKeys()
		out.covOK, out.covTotal = gen.Coverage()
	}
	snap := reg.Snapshot()
	out.retries = snap.Counters["llm.retries"]
	out.opens = snap.Counters["llm.breaker.opens"]
	out.rejected = snap.Counters["llm.calls.rejected.o1"]
	out.degradedN = snap.Counters["pipeline.activities.degraded"]
	return out
}

func TestChaosRunIsDeterministic(t *testing.T) {
	a, b := runChaos(t, 7), runChaos(t, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed chaos runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestChaosRunPinnedOutcome(t *testing.T) {
	got := runChaos(t, 7)
	if got.err != nil {
		t.Fatalf("teach survived probabilistic faults at this seed before; now: %v", got.err)
	}
	// The outage begins at injector call 21, mid-way through the curriculum:
	// the last five activities degrade, the first eleven survive.
	wantDegraded := []string{"tu", "p", "l", "s", "d"}
	if !reflect.DeepEqual(got.degraded, wantDegraded) {
		t.Errorf("degraded = %v, want %v", got.degraded, wantDegraded)
	}
	if got.degradedN != int64(len(wantDegraded)) {
		t.Errorf("pipeline.activities.degraded = %d, want %d", got.degradedN, len(wantDegraded))
	}
	if got.covOK != 11 || got.covTotal != 16 {
		t.Errorf("coverage = %d/%d, want 11/16", got.covOK, got.covTotal)
	}
	if got.retries != 5 {
		t.Errorf("llm.retries = %d, want 5", got.retries)
	}
	if got.opens != 1 {
		t.Errorf("llm.breaker.opens = %d, want 1", got.opens)
	}
	if got.rejected < 1 {
		t.Errorf("llm.calls.rejected.o1 = %d, want >= 1 (degraded tail fails fast)", got.rejected)
	}
	wantTransitions := []string{"closed->open"}
	if !reflect.DeepEqual(got.transition, wantTransitions) {
		t.Errorf("breaker transitions = %v, want %v", got.transition, wantTransitions)
	}
}
