package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"rtecgen/internal/intervals"
	"rtecgen/internal/lang"
	"rtecgen/internal/rtec"
)

// The subscription wire format. A window delivery is one JSON object; the
// SSE stream frames it as "event: window\ndata: <object>\n\n". Interval
// end-points are the engine's half-open [start, end) convention; an
// open-ended interval carries end = intervals.Inf (math.MaxInt64).
type wireSpan struct {
	Start int64 `json:"start"`
	End   int64 `json:"end"`
}

type wireHold struct {
	FVP       string     `json:"fvp"` // canonical key, e.g. "trawling(v1)=true"
	Intervals []wireSpan `json:"intervals"`
}

type wireWindow struct {
	Shard       int        `json:"shard"`
	WindowStart int64      `json:"window_start"`
	QueryTime   int64      `json:"query_time"`
	Revision    int        `json:"revision,omitempty"`
	Holds       []wireHold `json:"holds"`
	Retracted   []wireHold `json:"retracted,omitempty"`
}

// pubEntry is one FVP of a published window with its filter keys
// precomputed, so per-subscriber filtering never re-parses terms.
type pubEntry struct {
	fluent   string // fluent indicator, e.g. "trawling/1"
	entities []string
	hold     wireHold
}

// subscriber is one /subscribe client: a bounded delivery buffer that drops
// (and counts) when full rather than blocking the engine that publishes —
// the engine never waits for a slow consumer. A subscriber whose drop count
// passes the eviction threshold is disconnected: it is too far behind for
// the stream to still mean anything.
type subscriber struct {
	id      int64
	fluent  string // filter: only windows holding this indicator ("" = all)
	entity  string // filter: only FVPs naming this entity ("" = all)
	ch      chan []byte
	done    chan struct{}
	dropped int64
}

// hub fans window deliveries out to the subscribers. publish is called from
// the engine's consumer goroutine and never blocks on a subscriber.
type hub struct {
	d *Daemon

	mu         sync.Mutex
	subs       map[int64]*subscriber
	nextID     int64
	closed     bool
	bufCap     int
	evictAfter int64
}

func newHub(d *Daemon, bufCap int, evictAfter int) *hub {
	return &hub{d: d, subs: map[int64]*subscriber{}, bufCap: bufCap, evictAfter: int64(evictAfter)}
}

func (h *hub) add(fluent, entity string) (*subscriber, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, fmt.Errorf("serve: daemon is shutting down")
	}
	h.nextID++
	sub := &subscriber{
		id: h.nextID, fluent: fluent, entity: entity,
		ch: make(chan []byte, h.bufCap), done: make(chan struct{}),
	}
	h.subs[sub.id] = sub
	h.d.mSubsActive.Set(int64(len(h.subs)))
	return sub, nil
}

func (h *hub) remove(id int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if sub, ok := h.subs[id]; ok {
		delete(h.subs, id)
		close(sub.done)
		h.d.mSubsActive.Set(int64(len(h.subs)))
	}
}

// close disconnects every subscriber; their handlers return, which lets the
// HTTP server's graceful shutdown complete instead of waiting out the
// drain deadline on idle SSE connections.
func (h *hub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	for id, sub := range h.subs {
		delete(h.subs, id)
		close(sub.done)
	}
	h.d.mSubsActive.Set(0)
}

// publish fans one window delivery out to the matching subscribers. Called
// from the consumer goroutine under the supervisor's OnWindow contract: it
// must not block, so sends are non-blocking — a full buffer counts a drop,
// and a subscriber whose drops pass the eviction threshold is cut off.
func (h *hub) publish(shard int, wr rtec.WindowResult) {
	h.d.mPublished.Inc()
	holds := entriesOf(wr.Recognised, wr.FVPs)
	retracted := entriesOf(wr.Retracted, wr.FVPs)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed || len(h.subs) == 0 {
		return
	}
	for id, sub := range h.subs {
		payload := filterWindow(shard, wr, holds, retracted, sub)
		if payload == nil {
			continue
		}
		select {
		case sub.ch <- payload:
			h.d.mSubsDelivered.Inc()
		default:
			sub.dropped++
			h.d.mSubsDropped.Inc()
			if sub.dropped >= h.evictAfter {
				delete(h.subs, id)
				close(sub.done)
				h.d.mSubsEvicted.Inc()
				h.d.mSubsActive.Set(int64(len(h.subs)))
			}
		}
	}
}

// entriesOf converts one window's FVP→intervals map into publishable
// entries in deterministic (sorted-key) order, with the fluent indicator
// and rendered entity arguments precomputed for filtering.
func entriesOf(m map[string]intervals.List, fvps map[string]*lang.Term) []pubEntry {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for key := range m {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	entries := make([]pubEntry, 0, len(keys))
	for _, key := range keys {
		e := pubEntry{hold: wireHold{FVP: key, Intervals: spansOf(m[key])}}
		// The FVP term is fluent(args...)=value; the fluent side carries
		// both the indicator and the entity arguments subscribers filter by.
		if fvp := fvps[key]; fvp != nil && len(fvp.Args) > 0 {
			fl := fvp.Args[0]
			e.fluent = fl.Indicator()
			for _, arg := range fl.Args {
				e.entities = append(e.entities, arg.String())
			}
		}
		entries = append(entries, e)
	}
	return entries
}

func spansOf(l intervals.List) []wireSpan {
	spans := make([]wireSpan, len(l))
	for i, iv := range l {
		spans[i] = wireSpan{Start: iv.Start, End: iv.End}
	}
	return spans
}

// filterWindow renders the window for one subscriber, applying its fluent
// and entity filters. A filtered subscriber gets nil (no delivery) when
// nothing in the window matches; an unfiltered one gets every delivery,
// empty windows included — they are its progress signal.
func filterWindow(shard int, wr rtec.WindowResult, holds, retracted []pubEntry, sub *subscriber) []byte {
	ww := wireWindow{
		Shard: shard, WindowStart: wr.WindowStart, QueryTime: wr.QueryTime,
		Revision: wr.Revision,
		Holds:    make([]wireHold, 0, len(holds)),
	}
	for _, e := range holds {
		if sub.matches(e) {
			ww.Holds = append(ww.Holds, e.hold)
		}
	}
	for _, e := range retracted {
		if sub.matches(e) {
			ww.Retracted = append(ww.Retracted, e.hold)
		}
	}
	if (sub.fluent != "" || sub.entity != "") && len(ww.Holds) == 0 && len(ww.Retracted) == 0 {
		return nil
	}
	payload, err := json.Marshal(ww)
	if err != nil {
		return nil
	}
	return payload
}

func (sub *subscriber) matches(e pubEntry) bool {
	if sub.fluent != "" && sub.fluent != e.fluent {
		return false
	}
	if sub.entity != "" {
		for _, ent := range e.entities {
			if ent == sub.entity {
				return true
			}
		}
		return false
	}
	return true
}

// handleSubscribe serves GET /subscribe: a Server-Sent Events stream of
// window deliveries ("event: window" frames). ?fluent=name/arity and
// ?entity=e filter the deliveries. The per-client buffer is bounded: a
// consumer slower than the engine loses windows (counted in
// serve.subs.dropped) and is evicted once it falls hopelessly behind —
// backpressure never reaches the engine.
func (d *Daemon) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "subscribe wants GET", nil)
		return
	}
	q := r.URL.Query()
	sub, err := d.hub.add(q.Get("fluent"), q.Get("entity"))
	if err != nil {
		d.retryAfter(w)
		writeError(w, http.StatusServiceUnavailable, err.Error(), nil)
		return
	}
	defer d.hub.remove(sub.id)

	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported", nil)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	fmt.Fprintf(w, ": subscribed\n\n")
	fl.Flush()
	for {
		select {
		case payload := <-sub.ch:
			fmt.Fprintf(w, "event: window\ndata: %s\n\n", payload)
			fl.Flush()
		case <-sub.done:
			return
		case <-r.Context().Done():
			return
		}
	}
}
