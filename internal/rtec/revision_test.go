package rtec

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rtecgen/internal/intervals"
	"rtecgen/internal/lang"
	"rtecgen/internal/maritime"
	"rtecgen/internal/parser"
	"rtecgen/internal/stream"
	"rtecgen/internal/telemetry"
	"rtecgen/internal/telemetry/journal"
)

// TestRevisionBoundaryCarryOver: a late occurrence at q-1 of a tumbling
// window changes nothing inside [ws, q) — an interval initiated there starts
// at q, one terminated there ends at q — but decides whether the FVP is open
// at the next window's start. The revised window's delivered recognition is
// therefore unchanged (it is not re-delivered), its inertia hand-off is not,
// and the downstream window must be revised. A revision that took "no list
// changed inside the window" for "nothing changed" would keep the previous
// hand-off and lose the downstream revision.
func TestRevisionBoundaryCarryOver(t *testing.T) {
	const fvp = "withinArea(v1, fishing)=true"
	for _, tc := range []struct {
		name     string
		early    stream.Stream // arrives in order, before window [0,100) is emitted
		late     stream.Event  // arrives after window [100,200) was emitted
		openWas  bool          // fvp open at 100 before the late arrival
		revision string        // what the downstream revision does to fvp
	}{
		{
			name:     "late termination at q-1 of an FVP open across q",
			early:    stream.Stream{ev(10, "entersArea(v1, a1)")},
			late:     ev(99, "leavesArea(v1, a1)"),
			openWas:  true,
			revision: "  retract " + fvp + " [(99,199]]\n",
		},
		{
			name:     "late initiation at q-1 of an FVP that did not hold",
			late:     ev(99, "entersArea(v1, a1)"),
			openWas:  false,
			revision: "  " + fvp + " [(99,199]]\n",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			arrivals := append(append(stream.Stream{}, tc.early...),
				ev(50, "entersArea(v2, a2)"),
				ev(120, "entersArea(v3, a2)"), // frontier passes 100: [0,100) is emitted
				ev(210, "entersArea(v4, a2)"), // frontier passes 200: [100,200) is emitted
				tc.late,
				ev(290, "entersArea(v5, a2)"))
			opts := StreamOptions{
				RunOptions:      RunOptions{Window: 100, Start: 0, End: 300},
				MaxDelay:        150,
				CheckpointEvery: 1,
			}

			// White box: the late arrival marks window 0; the arrival at 290,
			// whose watermark 140 passes window 0's query time, flushes the
			// mark, which leaves window 0's delivery alone and flips its
			// hand-off.
			delta, full := deltaOracle(t, withinAreaED, 1)
			r, err := delta.NewStreamRunner(opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range arrivals {
				if a.Time == tc.late.Time {
					if r.st.emitted != 2 {
						t.Fatalf("%d windows emitted before the late arrival, want 2", r.st.emitted)
					}
					if _, open := r.st.slots[0].eval.nextOpen[fvp]; open != tc.openWas {
						t.Fatalf("before the late arrival: %s open at 100 = %v, want %v", fvp, open, tc.openWas)
					}
				}
				if err := r.Ingest(a); err != nil {
					t.Fatal(err)
				}
				switch a.Time {
				case tc.late.Time:
					if len(r.st.slots[0].marks) == 0 || r.st.slots[1].revision != 0 {
						t.Fatalf("after the late arrival: window 0 marks %v, window 1 revision %d; want the late point marked and nothing revised yet",
							r.st.slots[0].marks, r.st.slots[1].revision)
					}
				case 290:
					if _, open := r.st.slots[0].eval.nextOpen[fvp]; open == tc.openWas {
						t.Fatalf("after the flush: %s open at 100 is still %v", fvp, open)
					}
					if r.st.slots[0].revision != 0 || r.st.slots[1].revision != 1 {
						t.Fatalf("revisions = %d, %d; want window [0,100) left at 0 (its clipped recognition is unchanged) and [100,200) revised to 1",
							r.st.slots[0].revision, r.st.slots[1].revision)
					}
				}
			}
			res, err := r.Finish()
			if err != nil {
				t.Fatal(err)
			}
			sorted := append(stream.Stream{}, arrivals...)
			sorted.Sort()
			batch, err := full.Run(sorted, opts.RunOptions)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := csvOf(t, res.Recognition), csvOf(t, batch); got != want {
				t.Fatalf("final CSV differs from batch Run:\n--- stream\n%s\n--- batch\n%s", got, want)
			}

			// Everything a consumer observes equals the from-scratch engine's.
			dLog, dJ, dC := deliveryTrace(t, delta, arrivals, opts)
			fLog, fJ, fC := deliveryTrace(t, full, arrivals, opts)
			if !strings.Contains(fLog, "window [100,200) rev=1\n") {
				t.Fatalf("the oracle did not revise the downstream window:\n%s", fLog)
			}
			if !strings.Contains(fLog, tc.revision) || strings.Contains(fLog, "window [0,100) rev=1") {
				t.Fatalf("the oracle's revision is not the expected one (%q, window [0,100) not re-delivered):\n%s", tc.revision, fLog)
			}
			if dLog != fLog {
				t.Fatalf("deliveries differ:\n--- delta\n%s\n--- full\n%s", dLog, fLog)
			}
			if !bytes.Equal(dJ, fJ) {
				t.Fatal("journal bytes differ")
			}
			if !bytes.Equal(dC, fC) {
				t.Fatal("checkpoint envelope bytes differ")
			}
		})
	}
}

// revisionBound is the most re-deliveries a window can see at a delay bound
// and slide: one per flush while it is revisable. Let k = ⌈maxDelay/slide⌉.
// When the delay is k whole slides, the watermark reaches a window's query
// time at an emission, so a window lives through the k emissions after its
// own and at most two more flushes — the end of the stream, or a watermark
// step over a last window the time-line clips: k + 2. Otherwise the
// watermark also reaches the query times of the k windows up to and
// including it between emissions, and each such step flushes every marked
// window: up to 2k − 1 flushes (TestRevisionsBounded's worst case), 2k + 1
// with the same allowance.
func revisionBound(maxDelay, slide int64) int {
	k := int((maxDelay + slide - 1) / slide)
	if maxDelay%slide != 0 {
		return 2*k + 1
	}
	return k + 2
}

// TestRevisionsBounded: a late arrival only marks the windows it lands in,
// and the marks are applied at points the arrival sequence sets (the next
// emission, the watermark reaching a marked window, the end of the stream),
// not once per late arrival. Over the shuffled maritime stream, on tumbling
// windows and at slide 900, no window is re-delivered more than
// revisionBound times, and the run evaluates no more than one more window
// than that per window. A delay of 3.5 slides, with a late arrival before
// every flush point, reaches the 2k − 1 re-deliveries of revisionBound's
// unaligned case.
func TestRevisionsBounded(t *testing.T) {
	bg, _, arrivals := shellInput(t)
	gold := maritime.GoldSource() + bg
	const window, maxDelay = 3600, 900
	for _, slide := range []int64{window, 900} {
		t.Run(fmt.Sprintf("slide=%d", slide), func(t *testing.T) {
			reg := telemetry.NewRegistry()
			e := mustEngine(t, gold, Options{Workers: 1, Telemetry: telemetry.New(reg, nil, nil)})
			opts := StreamOptions{RunOptions: RunOptions{Window: window, Slide: slide}, MaxDelay: maxDelay}
			latest, res := latestRevisions(t, e, arrivals, opts)
			if res.Stats.Revisions == 0 {
				t.Fatal("the shuffle produced no revisions; nothing is being tested")
			}
			bound := revisionBound(maxDelay, slide)
			for q, rev := range latest {
				if rev > bound {
					t.Errorf("window with query time %d re-delivered %d times, bound %d", q, rev, bound)
				}
			}
			windows := int64(len(latest))
			if n := reg.Counter("rtec.windows.evaluated").Value(); n > windows*int64(bound+1) {
				t.Errorf("%d window evaluations for %d windows (%d revisions, %d late arrivals), bound %d",
					n, windows, res.Stats.Revisions, res.Stats.Late, windows*int64(bound+1))
			}
		})
	}
	t.Run("unaligned worst case", func(t *testing.T) {
		// Window [50,60) is emitted at frontier 60 and final at 95. Before
		// each flush point it lives through — the watermark passing windows
		// 2, 3 and 4 (marked by the v2 arrivals) and window 5 itself, and the
		// emissions at 70, 80 and 90 — a late v1 arrival changes it.
		var arrivals stream.Stream
		for _, at := range []int64{5, 15, 25, 35, 45, 55, 60, 64} {
			arrivals = append(arrivals, ev(at, "gap_start(v9)"))
		}
		arrivals = append(arrivals,
			ev(52, "entersArea(v1, a1)"), ev(29, "entersArea(v2, a1)"), ev(65, "gap_start(v9)"),
			ev(53, "leavesArea(v1, a1)"), ev(70, "gap_start(v9)"),
			ev(74, "gap_start(v9)"), ev(54, "entersArea(v1, a1)"), ev(39, "entersArea(v2, a1)"), ev(75, "gap_start(v9)"),
			ev(55, "leavesArea(v1, a1)"), ev(80, "gap_start(v9)"),
			ev(84, "gap_start(v9)"), ev(56, "entersArea(v1, a1)"), ev(49, "entersArea(v2, a1)"), ev(85, "gap_start(v9)"),
			ev(57, "leavesArea(v1, a1)"), ev(90, "gap_start(v9)"),
			ev(93, "gap_start(v9)"), ev(58, "entersArea(v1, a1)"), ev(95, "gap_start(v9)"))
		const slide, maxDelay = 10, 35
		opts := StreamOptions{RunOptions: RunOptions{Window: slide, Start: 0, End: 200}, MaxDelay: maxDelay}
		latest, _ := latestRevisions(t, mustEngine(t, withinAreaED, Options{Strict: true}), arrivals, opts)
		if got, bound := latest[60], revisionBound(maxDelay, slide); got != 7 || got > bound {
			t.Fatalf("window [50,60) re-delivered %d times, want 7 (2k − 1 flushes, k = 4), bound %d", got, bound)
		}
	})
}

// latestRevisions streams arrivals through e and returns each window's
// latest delivered revision, by query time.
func latestRevisions(t *testing.T, e *Engine, arrivals stream.Stream, opts StreamOptions) (map[int64]int, *StreamResult) {
	t.Helper()
	latest := map[int64]int{}
	res, err := e.RunStream(arrivals, opts, func(wr WindowResult) error {
		latest[wr.QueryTime] = wr.Revision
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return latest, res
}

// warningED is withinAreaED plus definitions that warn while they are
// evaluated — generated definitions, the paper's input distribution, mostly
// do: a simple rule conditioned on a predicate nothing defines, and a
// statically determined rule whose head interval the body never produces.
const warningED = withinAreaED + `
initiatedAt(flagged(Vl)=true, T) :-
    happensAt(entersArea(Vl, AreaID), T),
    blacklisted(Vl).
terminatedAt(flagged(Vl)=true, T) :-
    happensAt(gap_start(Vl), T).

holdsFor(loose(Vl)=true, I) :-
    holdsFor(withinArea(Vl, fishing)=true, I1).

holdsFor(inAnyArea(Vl)=true, I) :-
    holdsFor(withinArea(Vl, fishing)=true, I1),
    holdsFor(withinArea(Vl, anchorage)=true, I2),
    union_all([I1, I2], I).
`

// TestRevisionInstallReplaysWarnings: a fluent a revision installs from its
// carried lists must warn as if it had been evaluated. Over a shuffled stream
// whose late arrivals land in emitted windows, the warnings (order included),
// the journal and the checkpoint envelope equal the from-scratch engine's at
// Workers 1 and 8.
func TestRevisionInstallReplaysWarnings(t *testing.T) {
	arrivals := chaosArrivals(t, 5, 60)
	run := func(e *Engine) (warnings string, journalBytes, ckpt []byte) {
		var jbuf bytes.Buffer
		opts := StreamOptions{
			RunOptions:      RunOptions{Window: 100},
			MaxDelay:        60,
			CheckpointEvery: 2,
			CheckpointPath:  filepath.Join(t.TempDir(), "run.ckpt"),
			Journal:         journal.NewWriter(&jbuf, journal.Options{}),
		}
		res, err := e.RunStream(arrivals, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Revisions == 0 {
			t.Fatal("the shuffle produced no revisions; nothing is being tested")
		}
		ckpt, err = os.ReadFile(opts.CheckpointPath)
		if err != nil {
			t.Fatal(err)
		}
		return recognitionFingerprint(t, res.Recognition), jbuf.Bytes(), ckpt
	}
	for _, workers := range []int{1, 8} {
		reg := telemetry.NewRegistry()
		delta := mustEngine(t, warningED, Options{Workers: workers, Telemetry: telemetry.New(reg, nil, nil)})
		full := mustEngine(t, warningED, Options{Workers: workers, DisableDelta: true})
		dW, dJ, dC := run(delta)
		fW, fJ, fC := run(full)
		for _, want := range []string{
			"warn flagged/1: unknown predicate blacklisted/1; condition fails",
			"warn loose/1: head interval variable I_r is not produced by the body; dropped",
		} {
			if !strings.Contains(fW, want) {
				t.Fatalf("workers=%d: the oracle run lacks the warning %q:\n%s", workers, want, fW)
			}
		}
		if reg.Counter("rtec.delta.installed").Value() == 0 {
			t.Fatalf("workers=%d: rtec.delta.installed = 0: no revision installed a fluent; nothing is being tested", workers)
		}
		if dW != fW {
			t.Fatalf("workers=%d: recognition or warnings differ:\n--- delta\n%s\n--- full\n%s", workers, dW, fW)
		}
		if !bytes.Equal(dJ, fJ) {
			t.Fatalf("workers=%d: journal bytes differ", workers)
		}
		if !bytes.Equal(dC, fC) {
			t.Fatalf("workers=%d: checkpoint envelope bytes differ", workers)
		}
	}
}

// revisionAllocCeiling bounds the heap allocations of ingesting one late
// arrival and flushing the mark it leaves, which revises an emitted window
// without changing any interval: the first 3600 s window of the 14-vessel
// seed-7 scenario under the gold event description at Workers:2, and a late
// velocity report of a vessel that is under way anyway. Like
// windowAllocCeiling it is a count: 870 when it was committed at 1 000
// (EXPERIMENTS.md "PR 24"; evaluating every fluent of the window costs
// 2 627), 856 while every revision re-indexed the whole window from the
// reorder buffer, 361 since the window keeps the index its first revision
// built and a late event is inserted into it (EXPERIMENTS.md "PR 40"), and
// 364 with the revision deferred to a flush of the window's marks
// (EXPERIMENTS.md "PR 43"). The ceiling is about 25 % above that: a revision
// that re-indexes the window, or walks it again — replaying every anchor
// event, recomputing every statically determined fluent — fails here before
// a stopwatch notices.
const revisionAllocCeiling = 450

func TestRevisionAllocCeiling(t *testing.T) {
	e, events := goldScenario(t, 2)
	first, last := events.TimeRange()
	r, err := e.NewStreamRunner(StreamOptions{
		RunOptions: RunOptions{Window: 3600, Start: first, End: last + 1},
		MaxDelay:   1800,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Abort()
	// Emit the first window and stop just past it: it stays revisable.
	var template stream.Event
	for _, a := range events {
		if a.Time > first+3700 {
			break
		}
		if err := r.Ingest(a); err != nil {
			t.Fatal(err)
		}
		if a.Atom.Functor == "velocity" && a.Time > first+2400 && a.Time < first+3000 && template.Atom == nil {
			template = a
		}
	}
	st := r.st
	if st.emitted != 1 || st.final != 0 || template.Atom == nil {
		t.Fatalf("emitted %d windows (final %d), velocity template %v: want the first window emitted and revisable", st.emitted, st.final, template.Atom)
	}
	// Every run needs an arrival of its own (a repeat is a duplicate): the
	// template report again, at the following time-points.
	runs, next := 5, 0
	revisionsBefore := st.stats.Revisions
	allocs := testing.AllocsPerRun(runs, func() {
		next++
		before := st.slots[0].delta
		if err := r.Ingest(stream.Event{Time: template.Time + int64(next), Atom: template.Atom}); err != nil {
			t.Fatal(err)
		}
		if err := st.flush(); err != nil {
			t.Fatal(err)
		}
		if st.slots[0].delta == before {
			t.Fatal("the late arrival did not re-evaluate the emitted window")
		}
	})
	if late := st.reorder.Stats().Late; late < int64(runs) || st.stats.Revisions != revisionsBefore {
		t.Fatalf("late=%d revisions=%d: want every arrival admitted late and none changing an interval", late, st.stats.Revisions-revisionsBefore)
	}
	t.Logf("%.0f allocs per late arrival, ceiling %d", allocs, revisionAllocCeiling)
	if allocs > revisionAllocCeiling {
		t.Fatalf("one late arrival allocates %.0f objects, ceiling %d", allocs, revisionAllocCeiling)
	}
}

// multiValueED has what the idle-addition shortcut of a revision reasons
// about and the other test descriptions lack: a fluent with several mutually
// exclusive values, initiated again and again while it holds, terminated by
// ground rules and by a wildcard over its values, with a simple and a
// statically determined fluent on top.
const multiValueED = `
inputEvent(slow(_)).
inputEvent(fast(_)).
inputEvent(stop(_)).
inputEvent(halt(_)).

initiatedAt(speed(X)=low, T) :- happensAt(slow(X), T).
initiatedAt(speed(X)=high, T) :- happensAt(fast(X), T).
terminatedAt(speed(X)=low, T) :- happensAt(stop(X), T).
terminatedAt(speed(X)=_V, T) :- happensAt(halt(X), T).

initiatedAt(rushing(X)=true, T) :-
    happensAt(fast(X), T),
    holdsAt(speed(X)=low, T).
terminatedAt(rushing(X)=true, T) :- happensAt(stop(X), T).
terminatedAt(rushing(X)=true, T) :- happensAt(halt(X), T).

holdsFor(moving(X)=true, I) :-
    holdsFor(speed(X)=low, I1),
    holdsFor(speed(X)=high, I2),
    union_all([I1, I2], I).
`

func genMultiValueStream(r *rand.Rand, horizon int64) stream.Stream {
	var s stream.Stream
	for i := 0; i < 150+r.Intn(100); i++ {
		// Mostly initiations, so most late arrivals repeat a value that holds.
		kind := []string{"slow", "slow", "slow", "fast", "fast", "fast", "stop", "halt"}[r.Intn(8)]
		x := []string{"x", "y", "z"}[r.Intn(3)]
		s = append(s, ev(int64(r.Intn(int(horizon))), kind+"("+x+")"))
	}
	return s
}

// TestRevisionIdleAdditionsEquivalence: most late arrivals of a dense stream
// over a multi-valued fluent add an occurrence that changes no interval (the
// value holds anyway, or the terminated one did not), which a revision
// answers from the carried lists; the rest change one. Either way the whole
// observable surface equals the from-scratch engine's, for tumbling and
// overlapping windows, at Workers 1 and 8.
func TestRevisionIdleAdditionsEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		events := genMultiValueStream(r, 1000)
		events.Sort()
		arrivals, _, _ := stream.Perturb(events, r, 80, 0)
		for _, geo := range []RunOptions{{Window: 150}, {Window: 120, Slide: 40}} {
			workers := []int{1, 8}[seed%2]
			opts := StreamOptions{RunOptions: geo, MaxDelay: 80, CheckpointEvery: 3}
			reg := telemetry.NewRegistry()
			delta := mustEngine(t, multiValueED, Options{Strict: true, Workers: workers, Telemetry: telemetry.New(reg, nil, nil)})
			full := mustEngine(t, multiValueED, Options{Strict: true, Workers: workers, DisableDelta: true})
			dLog, dJ, dC := deliveryTrace(t, delta, arrivals, opts)
			fLog, fJ, fC := deliveryTrace(t, full, arrivals, opts)
			if !strings.Contains(fLog, "rev=1") || reg.Counter("rtec.delta.installed").Value() == 0 {
				t.Fatalf("seed %d %+v: no revision, or none that installed a fluent; nothing is being tested", seed, geo)
			}
			if dLog != fLog {
				t.Fatalf("seed %d %+v workers=%d: deliveries differ:\n--- delta\n%s\n--- full\n%s", seed, geo, workers, dLog, fLog)
			}
			if !bytes.Equal(dJ, fJ) || !bytes.Equal(dC, fC) {
				t.Fatalf("seed %d %+v workers=%d: journal or checkpoint bytes differ", seed, geo, workers)
			}
		}
	}
}

// TestIdleAdditions pins the shortcut's verdicts on one time-point.
func TestIdleAdditions(t *testing.T) {
	low, high := parser.MustParseTerm("speed(x)=low"), parser.MustParseTerm("speed(x)=high")
	entries := []listEntry{{fvp: low, list: intervals.List{ivl(11, 21)}}} // low holds on [11, 21), high never
	at := func(t int64, fvp *lang.Term) act { return act{fvp: fvp, t: t} }
	warned := act{warn: &Warning{Fluent: "speed/1", Msg: "m"}, t: 15}
	for _, tc := range []struct {
		name        string
		got, cached []act
		initiating  bool
		want        bool
	}{
		{"nothing added", []act{at(15, low)}, []act{at(15, low)}, true, true},
		{"initiation while the value holds at t+1", []act{at(15, low), at(15, low)}, []act{at(15, low)}, true, true},
		{"initiation at the last time-point it holds", []act{at(20, low)}, nil, true, false},
		{"initiation of another value", []act{at(15, high)}, nil, true, false},
		{"initiation of a value nothing stored", []act{at(15, parser.MustParseTerm("speed(y)=low"))}, nil, true, false},
		{"termination while the value does not hold at t+1", []act{at(30, low)}, nil, false, true},
		{"termination of a value nothing stored", []act{at(15, high)}, nil, false, true},
		{"termination while it holds", []act{at(15, low)}, nil, false, false},
		{"wildcard termination", []act{at(30, parser.MustParseTerm("speed(x)=V"))}, nil, false, false},
		{"added warning", []act{warned}, nil, true, false},
		{"cached occurrence gone", nil, []act{at(15, low)}, true, false},
		{"cached occurrence replaced", []act{at(15, low)}, []act{at(15, high)}, true, false},
	} {
		if got := idleAdditions(tc.got, tc.cached, entries, tc.initiating); got != tc.want {
			t.Errorf("%s: idleAdditions = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// unnamedReadED has rules whose holdsFor/holdsAt condition names its fluent
// only at run time (F comes from a background fact): they read lit/1 without
// a recorded dependency on it, and sort after it in the evaluation order.
const unnamedReadED = `
inputEvent(on(_)).
inputEvent(off(_)).
inputEvent(ping(_)).
watched(lit(a)).
watched(lit(b)).

initiatedAt(lit(X)=true, T) :- happensAt(on(X), T).
terminatedAt(lit(X)=true, T) :- happensAt(off(X), T).

holdsFor(seen(F)=true, I) :-
    watched(F),
    holdsFor(F=true, I1),
    union_all([I1], I).

initiatedAt(pinged(X)=true, T) :-
    happensAt(ping(X), T),
    watched(F),
    holdsAt(F=true, T).
terminatedAt(pinged(X)=true, T) :- happensAt(off(X), T).
`

// TestRevisionUnnamedFluentReads: a fluent whose rules read a fluent that
// only run time names has inputs the dependency diff cannot see, so a revision
// must evaluate it — never install its carried lists, never replay its cached
// acts. A late on(a) changes lit(a)'s list; seen(lit(a)) and pinged(x), which
// read it through a variable, must follow as the from-scratch engine's do.
func TestRevisionUnnamedFluentReads(t *testing.T) {
	e := mustEngine(t, unnamedReadED, Options{Strict: true})
	for ind, want := range map[string]bool{"lit/1": true, "seen/1": false, "pinged/1": false} {
		if got := e.fluents[ind].namedReads; got != want {
			t.Fatalf("%s: namedReads = %v, want %v", ind, got, want)
		}
	}
	if e.fluents["pinged/1"].deltaEligible {
		t.Fatal("pinged/1 replays cached acts although holdsAt(F=true, T) can read any fluent")
	}
	arrivals := stream.Stream{
		ev(30, "on(b)"),
		ev(40, "off(b)"),
		ev(50, "ping(x)"),
		ev(120, "ping(y)"), // frontier passes 100: [0,100) is emitted
		ev(20, "on(a)"),    // late: lit(a) now holds from 21 on
		ev(210, "ping(z)"),
		ev(290, "off(x)"),
	}
	opts := StreamOptions{
		RunOptions:      RunOptions{Window: 100, Start: 0, End: 300},
		MaxDelay:        150,
		CheckpointEvery: 1,
	}
	for _, workers := range []int{1, 8} {
		delta, full := deltaOracle(t, unnamedReadED, workers)
		dLog, dJ, dC := deliveryTrace(t, delta, arrivals, opts)
		fLog, fJ, fC := deliveryTrace(t, full, arrivals, opts)
		for _, want := range []string{
			"window [0,100) rev=1\n",
			"  seen(lit(a))=true [(20,99]]\n",
			"  pinged(x)=true [(50,99]]\n",
		} {
			if !strings.Contains(fLog, want) {
				t.Fatalf("workers=%d: the oracle's deliveries lack %q:\n%s", workers, want, fLog)
			}
		}
		if dLog != fLog {
			t.Fatalf("workers=%d: deliveries differ:\n--- delta\n%s\n--- full\n%s", workers, dLog, fLog)
		}
		if !bytes.Equal(dJ, fJ) || !bytes.Equal(dC, fC) {
			t.Fatalf("workers=%d: journal or checkpoint bytes differ", workers)
		}
	}

	// The same over dense shuffled streams, tumbling and sliding.
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		var events stream.Stream
		for i := 0; i < 120; i++ {
			kind := []string{"on", "on", "off", "ping", "ping"}[r.Intn(5)]
			events = append(events, ev(int64(r.Intn(800)), kind+"("+[]string{"a", "b", "x"}[r.Intn(3)]+")"))
		}
		events.Sort()
		shuffled, _, _ := stream.Perturb(events, r, 80, 0)
		for _, geo := range []RunOptions{{Window: 150}, {Window: 120, Slide: 40}} {
			sopts := StreamOptions{RunOptions: geo, MaxDelay: 80, CheckpointEvery: 3}
			delta, full := deltaOracle(t, unnamedReadED, []int{1, 8}[seed%2])
			dLog, dJ, dC := deliveryTrace(t, delta, shuffled, sopts)
			fLog, fJ, fC := deliveryTrace(t, full, shuffled, sopts)
			if !strings.Contains(fLog, "rev=1") {
				t.Fatalf("seed %d %+v: no revision; nothing is being tested", seed, geo)
			}
			if dLog != fLog {
				t.Fatalf("seed %d %+v: deliveries differ:\n--- delta\n%s\n--- full\n%s", seed, geo, dLog, fLog)
			}
			if !bytes.Equal(dJ, fJ) || !bytes.Equal(dC, fC) {
				t.Fatalf("seed %d %+v: journal or checkpoint bytes differ", seed, geo)
			}
		}
	}
}

// checkRetainedIndexes fails t unless every event index st's slots retain
// is the one indexWindow gives over the reorder buffer's window now: only a
// revisable slot of a run that has admitted a late event holds one (an
// in-order stream keeps none), with the same events per predicate in the
// same order, the same atoms per time-point in the same order, and one at
// term per time-point. A delta-versus-full comparison cannot see an index
// bug — both twins read the same index — so a run that revises calls this
// after every arrival.
func checkRetainedIndexes(t testing.TB, st *streamRun) {
	t.Helper()
	for i := range st.slots {
		got := st.slots[i].events
		if got == nil {
			continue
		}
		if i < st.final || i >= st.emitted || st.reorder.Stats().Late == 0 {
			t.Fatalf("slot %d holds an event index, but it is not revisable (final %d, emitted %d) or nothing arrived late (%d)",
				i, st.final, st.emitted, st.reorder.Stats().Late)
		}
		ws, q := st.tl.windowStart(i), st.tl.q(i)
		if err := sameIndex(got, indexWindow(st.reorder.Buffered().Window(ws, q))); err != nil {
			t.Fatalf("slot %d [%d,%d): the retained index is not the rebuilt one: %v", i, ws, q, err)
		}
	}
}

// sameIndex reports how got differs from the rebuilt index want.
func sameIndex(got, want *windowIndex) error {
	if got.n != want.n || len(got.byInd) != len(want.byInd) || len(got.byIndTime) != len(want.byIndTime) {
		return fmt.Errorf("%d events of %d predicates, the rebuild has %d of %d", got.n, len(got.byInd), want.n, len(want.byInd))
	}
	ats := map[int64]*lang.Term{}
	for pred, w := range want.byInd {
		g := got.byInd[pred]
		if len(g) != len(w) {
			return fmt.Errorf("%v: %d events, the rebuild has %d", pred, len(g), len(w))
		}
		for k := range w {
			if g[k].Time != w[k].Time || g[k].Atom != w[k].Atom {
				return fmt.Errorf("%v event %d is %s at %d, the rebuild has %s at %d", pred, k, g[k].Atom, g[k].Time, w[k].Atom, w[k].Time)
			}
			if g[k].at.Kind != lang.Int || g[k].at.Int != g[k].Time {
				return fmt.Errorf("%v event %d at %d carries the time term %s", pred, k, g[k].Time, g[k].at)
			}
			if at, ok := ats[g[k].Time]; ok && at != g[k].at {
				return fmt.Errorf("time-point %d has two time terms", g[k].Time)
			}
			ats[g[k].Time] = g[k].at
		}
	}
	for pred, w := range want.byIndTime {
		g := got.byIndTime[pred]
		if len(g) != len(w) {
			return fmt.Errorf("%v: %d time-points, the rebuild has %d", pred, len(g), len(w))
		}
		for tp, atoms := range w {
			if !slices.Equal(g[tp], atoms) {
				return fmt.Errorf("%v at %d: %v, the rebuild has %v", pred, tp, g[tp], atoms)
			}
		}
	}
	return nil
}

// TestRevisionIndexInPlace: a revisable window keeps the event index its
// first revision built, and each later late event in it is inserted in
// place. Over a shuffled stream with duplicates, at each window geometry of
// TestDeltaBatchGeometries, the retained indexes equal a rebuild from the
// reorder buffer after every arrival: through three arrivals of one
// *lang.Term at different time-points of one emitted window (an insert that
// matched events by pointer would misplace them), and across a suspend and
// resume, after which every slot is cold and rebuilds on its first
// revision. The CSV and journal equal the DisableDelta twin's, which keeps
// the same indexes.
func TestRevisionIndexInPlace(t *testing.T) {
	const maxDelay = 60
	events := geometryEvents()
	events.Sort()
	for _, tc := range deltaGeometries {
		t.Run(tc.name, func(t *testing.T) {
			opts := StreamOptions{
				RunOptions:      RunOptions{Window: tc.window, Slide: tc.slide, Start: 0, End: 1000},
				MaxDelay:        maxDelay,
				CheckpointEvery: 4,
			}
			tl, _, err := planStream(nil, opts)
			if tc.wantErr {
				if err == nil {
					t.Fatal("the geometry was not refused")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			arrivals, _, dups := stream.Perturb(events, rand.New(rand.NewSource(3)), maxDelay, 25)
			if dups == 0 {
				t.Fatal("the shuffle duplicated nothing")
			}
			// lateInEmitted reports whether arrivals[n] lands late in a window
			// the frontier had passed when it arrived, at least margin
			// time-points above the watermark (the frontier is the largest
			// time before it: nothing here is displaced beyond the delay),
			// and returns that window's query time.
			lateInEmitted := func(n int, margin int64) (int64, bool) {
				var f int64 = -1
				for _, a := range arrivals[:n] {
					f = max(f, a.Time)
				}
				for i := tl.n - 1; i >= 0; i-- {
					if q := tl.q(i); q <= f {
						return q, arrivals[n].Time < q && arrivals[n].Time >= f-maxDelay+margin
					}
				}
				return 0, false
			}
			// Splice in one term at three time-points just below the query
			// time of such a window, all three late in it, after another
			// event of its predicate at two of them: the term renders before
			// that event, so it goes in ahead of what the index holds there.
			reused, other := parser.MustParseTerm("entersArea(v1, a1)"), parser.MustParseTerm("entersArea(v2, a2)")
			splice := len(arrivals) / 3
			for ; splice < len(arrivals); splice++ {
				if q, ok := lateInEmitted(splice, 10); ok {
					arrivals = slices.Insert(slices.Clone(arrivals), splice,
						stream.Event{Time: q - 1, Atom: other},
						stream.Event{Time: q - 4, Atom: other},
						stream.Event{Time: q - 9, Atom: reused},
						stream.Event{Time: q - 1, Atom: reused},
						stream.Event{Time: q - 4, Atom: reused})
					break
				}
			}
			// Suspend just before a late arrival, so the resumed run revises
			// a cold slot.
			cut := splice + 5
			for ; cut < len(arrivals); cut++ {
				if _, ok := lateInEmitted(cut, 0); ok {
					break
				}
			}
			if splice == len(arrivals) || cut == len(arrivals) {
				t.Fatal("no arrival lands late in an emitted window")
			}

			run := func(e *Engine) (csv string, journalBytes []byte) {
				var jbuf bytes.Buffer
				o := opts
				o.CheckpointPath = filepath.Join(t.TempDir(), "run.ckpt")
				o.Journal = journal.NewWriter(&jbuf, journal.Options{})
				inPlace, reusedInPlace, coldBuilt := 0, 0, 0
				ingest := func(r *StreamRunner, from, to int, resumed bool) {
					for n := from; n < to; n++ {
						st := r.st
						before := make([]*windowIndex, len(st.slots))
						sizes := make([]int, len(st.slots))
						for i := range st.slots {
							if before[i] = st.slots[i].events; before[i] != nil {
								sizes[i] = before[i].n
							}
						}
						if err := r.Ingest(arrivals[n]); err != nil {
							t.Fatal(err)
						}
						checkRetainedIndexes(t, st)
						for i, x := range before {
							switch now := st.slots[i].events; {
							case x != nil && now == x && x.n > sizes[i]:
								inPlace++
								if n >= splice+2 && n < splice+5 {
									reusedInPlace++
								}
							case x == nil && now != nil && resumed:
								coldBuilt++
							}
						}
					}
				}
				r, err := e.NewStreamRunner(o, nil)
				if err != nil {
					t.Fatal(err)
				}
				ingest(r, 0, cut, false)
				if err := r.Suspend(); err != nil {
					t.Fatal(err)
				}
				cp, err := LoadCheckpoint(o.CheckpointPath)
				if err != nil {
					t.Fatal(err)
				}
				if r, err = e.ResumeStreamRunner(cp, o, nil); err != nil {
					t.Fatal(err)
				}
				for i := range r.st.slots {
					if r.st.slots[i].events != nil {
						t.Fatalf("resumed slot %d holds an event index: the index is never checkpointed", i)
					}
				}
				ingest(r, r.Consumed(), len(arrivals), true)
				res, err := r.Finish()
				if err != nil {
					t.Fatal(err)
				}
				if res.Stats.Duplicates == 0 {
					t.Fatal("no duplicate arrival was discarded")
				}
				if reusedInPlace < 2 || coldBuilt == 0 || inPlace <= reusedInPlace {
					t.Fatalf("%d in-place inserts (%d of the spliced term), %d cold slots rebuilt after the resume: the run does not exercise the retained index",
						inPlace, reusedInPlace, coldBuilt)
				}
				return csvOf(t, res.Recognition), jbuf.Bytes()
			}
			delta, full := deltaOracle(t, withinAreaED, 1)
			dCSV, dJ := run(delta)
			fCSV, fJ := run(full)
			if dCSV != fCSV {
				t.Fatalf("CSV differs from the DisableDelta twin's:\n--- delta\n%s\n--- full\n%s", dCSV, fCSV)
			}
			if !bytes.Equal(dJ, fJ) {
				t.Fatal("journal bytes differ from the DisableDelta twin's")
			}
			if !strings.Contains(dCSV, "withinArea") {
				t.Fatal("nothing recognised: the comparison is vacuous")
			}
		})
	}
}
