// Command benchmark is the repo's one benchmark: it drives the built
// binaries from outside — a real rtecd process over loopback, and
// cmd/experiments as a subprocess — on inputs generated from a seed, checks
// every output against a reference, and prints every metric by name with
// its unit. A separate traced run replays the same arrivals in-process, one
// layer at a time through each layer's public API, to attribute the cost.
// BENCHMARK.json at the repo root is its contract; README.md next to this
// file defines the metrics.
//
// Usage (from the repo root):
//
//	go run ./benchmark [-workload all|figures|daemon_replay|daemon_live|daemon_disorder]
//	                   [-seed 7] [-seconds 28] [-trace both|0|1] [-out dir]
//
// benchmark/run.sh is the same command with the Go caches pinned inside the
// checkout. The last line of standard output is one JSON object: correct,
// attempted, failed, metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"rtecgen/internal/clock"
)

// workDir holds everything the benchmark writes: built binaries, per-pass
// temp dirs and traces. It is relative to the checkout root and ignored by
// git.
const workDir = ".bench_build"

// binaries are the commands built from the checkout before any timer starts.
var binaries = []string{"rtecd", "rtec", "experiments", "aisgen", "disorder"}

// env is the benchmark's handle on the outside world.
type env struct {
	clk  clock.Clock
	root string // absolute workDir
	out  string // trace output directory
}

func (e *env) bin(name string) string { return filepath.Join(e.root, "bin", name) }

// tempDir makes a scratch directory under workDir (the benchmark writes
// nowhere else) and returns it with its remover.
func (e *env) tempDir(kind string) (string, func(), error) {
	base := filepath.Join(e.root, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(base, kind+"-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// build compiles the binaries under test from the checkout's source.
func (e *env) build(ctx context.Context) (time.Duration, error) {
	if _, err := os.Stat("go.mod"); err != nil {
		return 0, fmt.Errorf("run from the repository root: %w", err)
	}
	t0 := e.clk.Now()
	args := []string{"build", "-o", filepath.Join(e.root, "bin") + string(filepath.Separator)}
	for _, b := range binaries {
		args = append(args, "./cmd/"+b)
	}
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("go build: %w", err)
	}
	return e.clk.Now().Sub(t0), nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 7, "input seed: scenario and shuffle seeds derive from it")
	seconds := fs.Int("seconds", 28, "measurement budget per untraced run")
	trace := fs.String("trace", "both", "0 = end-to-end metrics, 1 = traced per-layer run, both")
	out := fs.String("out", filepath.Join(workDir, "out"), "directory for the Chrome trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}

	var todo []workload
	if *name == "all" {
		todo = workloads
	} else if w, ok := findWorkload(*name); ok {
		todo = []workload{w}
	} else {
		return fail(fmt.Errorf("unknown workload %q", *name))
	}
	var modes []bool
	switch *trace {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		return fail(fmt.Errorf("-trace wants 0, 1 or both, not %q", *trace))
	}

	root, err := filepath.Abs(workDir)
	if err != nil {
		return fail(err)
	}
	e := &env{clk: clock.Real(), root: root, out: *out}
	load0 := printHost(stdout)
	buildTime, err := e.build(ctx)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "build_s %.3f s (not part of any metric)\n", buildTime.Seconds())

	total := &report{correct: true, metrics: map[string]metric{}}
	for _, w := range todo {
		for _, traced := range modes {
			rep := newReport(stdout, w.name, traced, *seed)
			var err error
			switch {
			case w.name == "figures" && traced:
				err = traceFigures(e, *seed, rep)
			case w.name == "figures":
				err = runFigures(ctx, e, *seed, time.Duration(*seconds)*time.Second, rep)
			case traced:
				err = traceDaemon(ctx, e, w, *seed, rep)
			default:
				err = runDaemon(ctx, e, w, *seed, time.Duration(*seconds)*time.Second, rep)
			}
			if err != nil {
				return fail(fmt.Errorf("%s: %w", w.name, err))
			}
			rep.finish()
			total.merge(rep, len(todo)*len(modes) > 1)
		}
	}
	fmt.Fprintf(stdout, "load1 start=%.2f end=%.2f\n", load0, loadAvg())
	line, err := json.Marshal(total.result())
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !total.correct || total.failed > 0 {
		return fail(fmt.Errorf("%d of %d operations failed or an output mismatched its reference", total.failed, total.attempted))
	}
	return 0
}

// printHost prints the host fingerprint and returns the 1-minute load at
// start, warning when the host is already busy enough to skew timings.
func printHost(w io.Writer) float64 {
	load := loadAvg()
	fmt.Fprintf(w, "host nproc=%d cpu=%q gomaxprocs=%d go=%s commit=%s load1=%.2f\n",
		runtime.NumCPU(), cpuModel(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), load)
	if load > float64(runtime.NumCPU())/2 {
		fmt.Fprintf(w, "WARNING: load average %.2f exceeds nproc/2 — timings on this host are contended\n", load)
	}
	return load
}

func loadAvg() float64 {
	raw, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	var l float64
	fmt.Sscan(string(raw), &l) //nolint:errcheck // 0 when unreadable
	return l
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the checkout's HEAD; the driver's checkout is not a git
// repository, so this degrades to "unknown" rather than failing.
func commit() string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	if cwd, err := os.Getwd(); err == nil {
		// Never answer with the HEAD of some repository above the checkout.
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(cwd))
	}
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
