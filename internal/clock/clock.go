// Package clock provides the injectable time source of the daemon and the
// command-line tools. Production code uses the real clock; tests may use a
// virtual clock whose Sleep advances virtual time instantly, free of real
// sleeping.
package clock

import (
	"sync"
	"time"
)

// Clock is the minimal time surface the daemon needs: reading the
// current instant and blocking for a duration.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

// Real returns the wall clock (time.Now / time.Sleep).
func Real() Clock { return realClock{} }

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// Virtual is a deterministic clock: Now returns the virtual instant and
// Sleep advances it without blocking. Safe for concurrent use.
type Virtual struct {
	mu  sync.Mutex
	now time.Time
}

// NewVirtual returns a virtual clock starting at the given instant.
func NewVirtual(start time.Time) *Virtual { return &Virtual{now: start} }

// Now returns the current virtual instant.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Sleep advances virtual time by d (negative durations are ignored) and
// returns immediately.
func (v *Virtual) Sleep(d time.Duration) { v.Advance(d) }

// Advance moves the virtual clock forward by d.
func (v *Virtual) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	v.mu.Lock()
	v.now = v.now.Add(d)
	v.mu.Unlock()
}
