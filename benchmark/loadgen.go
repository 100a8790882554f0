package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"rtecgen/internal/clock"
)

// frameWait bounds the wait for first-emission frames still in flight after
// the last POST was acknowledged; frames missing past it count as failed.
const frameWait = 30 * time.Second

// plan is one pass's traffic: the NDJSON batches in arrival order and what
// the subscriber must see before the stream is finished.
type plan struct {
	batches  [][]byte
	offsets  []int   // arrivals before batch i — its place on the open-loop schedule
	frontier []int64 // event-time frontier (running max) after batch i
	expectQ  []int64 // query times whose first emission the ingest itself triggers
	arrivals int
	rate     float64 // offered events/s, open loop; 0 = closed loop
}

// passStats is what the load generator saw during one pass.
type passStats struct {
	wall                  time.Duration // first input due → CSV in hand
	ackMS, emitMS, lagMS  []float64
	posts, non200         int
	status429, status503  int
	frames, framesMissing int
	sseBytes              int64
	mallocs               uint64 // server memstats.Mallocs delta, ready → finished
	csv                   []byte
}

// triggerBatches maps each query time to the batch whose events first moved
// the event-time frontier to it — the batch a window's first emission is
// caused by. frontier must be non-decreasing; a query time no batch reaches
// maps to len(frontier).
func triggerBatches(frontier []int64, qs []int64) []int {
	out := make([]int, len(qs))
	for i, q := range qs {
		out[i] = sort.Search(len(frontier), func(b int) bool { return frontier[b] >= q })
	}
	return out
}

// drive plays a plan against a daemon's HTTP surface from outside: one SSE
// subscriber connection and one connection carrying the POSTs in order.
// Closed loop sends a batch when the previous one is acknowledged; open
// loop sends batch i when its first event is due at the offered rate and
// times it from then, so a stall charges every request queued behind it.
func drive(ctx context.Context, clk clock.Clock, base string, p *plan) (*passStats, error) {
	tr := &http.Transport{MaxIdleConnsPerHost: 2}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}

	subCtx, cancelSub := context.WithCancel(ctx)
	defer cancelSub()
	req, err := http.NewRequestWithContext(subCtx, http.MethodGet, base+"/subscribe", nil)
	if err != nil {
		return nil, err
	}
	sub, err := hc.Do(req) // returns once the handler has registered and flushed ": subscribed"
	if err != nil {
		return nil, err
	}
	defer sub.Body.Close()
	if sub.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("subscribe: %s", sub.Status)
	}

	st := &passStats{}
	var mu sync.Mutex
	first := make(map[int64]time.Time, len(p.expectQ)) // query time → first-emission receipt
	pending := make(map[int64]bool, len(p.expectQ))
	for _, q := range p.expectQ {
		pending[q] = true
	}
	allIn := make(chan struct{})
	if len(pending) == 0 {
		close(allIn)
	}
	sseDone := make(chan error, 1)
	go func() {
		n, err := readFrames(sub.Body, clk.Now, func(f frame) {
			var w struct {
				QueryTime int64 `json:"query_time"`
				Revision  int   `json:"revision"`
			}
			if f.event != "window" || json.Unmarshal(f.data, &w) != nil {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			st.frames++
			if _, seen := first[w.QueryTime]; w.Revision == 0 && !seen {
				first[w.QueryTime] = f.at
				if pending[w.QueryTime] {
					delete(pending, w.QueryTime)
					if len(pending) == 0 {
						close(allIn)
					}
				}
			}
		})
		st.sseBytes = n
		sseDone <- err
	}()

	m0, err := serverMallocs(ctx, hc, base)
	if err != nil {
		return nil, err
	}

	due := make([]time.Time, len(p.batches))
	t0 := clk.Now()
	for i, b := range p.batches {
		if p.rate > 0 {
			due[i] = t0.Add(time.Duration(float64(p.offsets[i]) / p.rate * float64(time.Second)))
			if wait := due[i].Sub(clk.Now()); wait > 0 {
				clk.Sleep(wait)
			}
			st.lagMS = append(st.lagMS, ms(clk.Now().Sub(due[i])))
		} else {
			due[i] = clk.Now()
		}
		code, _, err := post(ctx, hc, base+"/ingest", b)
		if err != nil {
			return nil, err
		}
		st.posts++
		switch code {
		case http.StatusOK:
			st.ackMS = append(st.ackMS, ms(clk.Now().Sub(due[i])))
		case http.StatusTooManyRequests:
			st.status429++
		case http.StatusServiceUnavailable:
			st.status503++
		}
		if code != http.StatusOK {
			st.non200++
		}
	}

	// The result is complete only once the subscriber has caught up: finishing
	// earlier would race the hub's shutdown against frames still queued.
	wait := time.NewTimer(frameWait)
	select {
	case <-allIn:
	case <-wait.C:
	case <-ctx.Done():
	}
	wait.Stop()

	code, csv, err := post(ctx, hc, base+"/finish", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("finish: status %d: %s", code, csv)
	}
	st.csv = csv
	st.wall = clk.Now().Sub(t0)

	m1, err := serverMallocs(ctx, hc, base)
	if err != nil {
		return nil, err
	}
	st.mallocs = m1 - m0

	// /finish closes the hub, which ends the SSE response; the cancel is the
	// backstop for a server that leaves it open.
	drain := time.AfterFunc(killGrace, cancelSub)
	<-sseDone
	drain.Stop()

	mu.Lock()
	defer mu.Unlock()
	for i, b := range triggerBatches(p.frontier, p.expectQ) {
		at, ok := first[p.expectQ[i]]
		if !ok || b >= len(due) {
			st.framesMissing++
			continue
		}
		st.emitMS = append(st.emitMS, ms(at.Sub(due[b])))
	}
	return st, nil
}

func post(ctx context.Context, hc *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// serverMallocs reads the server process's cumulative heap allocation count
// from its expvar endpoint.
func serverMallocs(ctx context.Context, hc *http.Client, base string) (uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/debug/vars", nil)
	if err != nil {
		return 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var vars struct {
		Memstats struct{ Mallocs uint64 } `json:"memstats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return 0, fmt.Errorf("/debug/vars: %w", err)
	}
	return vars.Memstats.Mallocs, nil
}
