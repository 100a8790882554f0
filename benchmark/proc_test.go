package main

import (
	"os"
	"testing"
)

func TestParseVmHWM(t *testing.T) {
	const status = "Name:\trtecd\nVmPeak:\t 1230000 kB\nVmHWM:\t   15360 kB\nVmRSS:\t   14000 kB\n"
	if got := parseVmHWM(status); got != 15 {
		t.Errorf("VmHWM of 15360 kB read as %g MB, want 15", got)
	}
	if got := parseVmHWM("Name:\tzombie\nState:\tZ (zombie)\n"); got != 0 {
		t.Errorf("a status without VmHWM read as %g MB, want 0", got)
	}
	if got := liveRSSMB(os.Getpid()); got <= 0 {
		t.Errorf("own VmHWM read as %g MB, want a positive number", got)
	}
}
