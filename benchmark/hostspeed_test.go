package main

import (
	"errors"
	"testing"
	"time"
)

func TestHostSpeedBrackets(t *testing.T) {
	// Each section is corrected by the mean of the reading that closed the
	// previous one and the reading taken after it.
	readings := []time.Duration{probeNominal, 2 * probeNominal, probeNominal / 2}
	h := &hostSpeed{last: readings[0]}
	h.probe = func() time.Duration {
		readings = readings[1:]
		return readings[0]
	}
	ran := 0
	if got, err := h.during(func() error { ran++; return nil }); err != nil || got != 1.5 {
		t.Errorf("first section: slowdown %g, err %v; want 1.5 (mean of 1× and 2× nominal)", got, err)
	}
	boom := errors.New("boom")
	if got, err := h.during(func() error { ran++; return boom }); err != boom || got != 1.25 {
		t.Errorf("second section: slowdown %g, err %v; want 1.25 (mean of 2× and 0.5×) and the section's error", got, err)
	}
	if ran != 2 {
		t.Errorf("sections ran %d times, want 2", ran)
	}
}

func TestProbeIsFixedWork(t *testing.T) {
	// The probe divides a time: the same rounds must be the same work.
	if a, b := probeWork(3), probeWork(3); a != b || a == 0 {
		t.Errorf("probeWork(3) = %d then %d, want one non-zero value", a, b)
	}
}
