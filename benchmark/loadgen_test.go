package main

import (
	"reflect"
	"strconv"
	"testing"
)

func TestTriggerBatches(t *testing.T) {
	// Frontier after each batch of a synthetic schedule. Batch 2 arrives out
	// of order and moves nothing; batch 4 jumps two windows at once.
	frontier := []int64{1000, 3500, 3500, 3600, 11000, 11000}
	qs := []int64{3600, 7200, 10800, 14400}
	got := triggerBatches(frontier, qs)
	// 3600 is reached exactly by batch 3 (a window is emitted once the
	// frontier is at or past its query time); 7200 and 10800 both by batch
	// 4; nothing reaches 14400 — that window is flushed by /finish.
	want := []int{3, 4, 4, len(frontier)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("triggerBatches = %v, want %v", got, want)
	}
}

func TestBatchSchedule(t *testing.T) {
	var raw []byte
	times := make([]int64, 0, 45)
	for i := 0; i < 45; i++ {
		ts := int64(i * 10)
		if i == 30 {
			ts = 5 // a late arrival must not move the frontier back
		}
		times = append(times, ts)
		raw = append(raw, []byte(`{"time":`+strconv.FormatInt(ts, 10)+`,"atom":"velocity(v1, 10.0, 90.0, 90.0)"}`+"\n")...)
	}
	in := &daemonInput{w: workload{name: "synthetic"}}
	if err := in.batch(raw); err != nil {
		t.Fatal(err)
	}
	p := in.plan
	if p.arrivals != 45 || len(p.batches) != 3 || len(in.arrivals) != 3 {
		t.Fatalf("arrivals=%d batches=%d parsed=%d, want 45 in 3 batches of %d lines", p.arrivals, len(p.batches), len(in.arrivals), batchLines)
	}
	if want := []int{0, 20, 40}; !reflect.DeepEqual(p.offsets, want) {
		t.Errorf("offsets = %v, want %v", p.offsets, want)
	}
	if want := []int64{times[19], times[39], times[44]}; !reflect.DeepEqual(p.frontier, want) {
		t.Errorf("frontier = %v, want %v", p.frontier, want)
	}
}
