package main

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"rtecgen/internal/clock"
)

// The figures workload is CPU-bound on every core, and on a shared host
// CPU-bound time follows the neighbours: the same binary on the same input
// runs 20–50 % slower for a minute at a time, so ten runs of one commit
// spread wider than any bound the contract allows. The benchmark therefore
// measures the host as well as the program: a fixed piece of work of its own
// (the probe) runs before and after every timed `experiments` process, and
// the time is divided by how much slower than nominal the probe ran around
// it. The result reads as seconds on a quiet sandbox host; the raw seconds
// are printed next to it. Sleep- and queue-bound times (the daemon
// workloads) do not scale with the host's speed and are not corrected.

// probeNominal is what the probe takes on the sandbox's 2.1 GHz Xeon in a
// quiet minute. It only fixes the unit: a host that runs the probe in this
// time reports raw seconds.
const probeNominal = 325 * time.Millisecond

// probeRounds sizes the probe to probeNominal on that host.
const probeRounds = 1200

// probeWork is the probe's single-core share: allocation, map, slice and
// sort work like the evaluator's own, from a fixed xorshift sequence, so
// that what slows the program (a busy sibling, a shared cache, a throttled
// core) slows the probe alike.
func probeWork(rounds int) uint64 {
	var acc uint64
	x := uint64(2463534242)
	for r := 0; r < rounds; r++ {
		byKey := make(map[uint64][]int, 256)
		all := make([]int, 0, 2048)
		for i := 0; i < 2048; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			k := x % 512
			byKey[k] = append(byKey[k], int(x>>40))
			all = append(all, int(x>>33))
		}
		sort.Ints(all)
		for _, v := range byKey {
			acc += uint64(len(v))
		}
		acc += uint64(all[len(all)/2])
	}
	return acc
}

// probeSink keeps the compiler from discarding the probe's work.
var probeSink uint64

// runProbe runs probeWork on every core at once, as the workload does, and
// returns the wall time.
func runProbe(clk clock.Clock) time.Duration {
	t0 := clk.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := probeWork(probeRounds)
			mu.Lock()
			probeSink += v
			mu.Unlock()
		}()
	}
	wg.Wait()
	return clk.Now().Sub(t0)
}

// hostSpeed brackets timed sections with probe readings.
type hostSpeed struct {
	probe func() time.Duration
	last  time.Duration // the reading that closed the previous section
}

// newHostSpeed warms the probe up (first-run page faults and heap growth
// are not the host's speed) and takes the opening reading.
func newHostSpeed(clk clock.Clock) *hostSpeed {
	h := &hostSpeed{probe: func() time.Duration { return runProbe(clk) }}
	h.probe()
	h.last = h.probe()
	return h
}

// during runs fn and returns how much slower than nominal the host ran
// around it: the mean of the readings before and after, over probeNominal.
// Sections follow each other directly, so one reading closes a section and
// opens the next.
func (h *hostSpeed) during(fn func() error) (slowdown float64, err error) {
	before := h.last
	err = fn()
	h.last = h.probe()
	return float64(before+h.last) / 2 / float64(probeNominal), err
}
