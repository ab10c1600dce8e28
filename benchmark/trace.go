package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bingo-search/bingo/internal/dns"
	"github.com/bingo-search/bingo/internal/store"
)

// span is one timed call into a layer. Spans of one request or crawl phase
// share Trace; Parent is the span that caused this one (0 for a root).
// Start and End are nanoseconds since the tracer started.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanRef is an open span. The zero value is "no span".
type spanRef struct {
	id, trace uint64
	name      string
	start     time.Time
}

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
	// phase is the crawl phase span in progress; calls the crawl makes
	// through the hooks (transport, DNS, sink) become its children.
	phase atomic.Pointer[spanRef]
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent; a zero parent starts a new trace.
func (t *tracer) begin(name string, parent spanRef) spanRef {
	if t == nil {
		return spanRef{}
	}
	id := t.ids.Add(1)
	trace := parent.trace
	if trace == 0 {
		trace = id
	}
	return spanRef{id: id, trace: trace, name: name, start: time.Now()}
}

// end closes s (opened under parent) and returns its duration.
func (t *tracer) end(s spanRef, parent spanRef) time.Duration {
	if t == nil || s.id == 0 {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: s.id, Parent: parent.id, Trace: s.trace, Name: s.name,
		Start: s.start.Sub(t.t0).Nanoseconds(), End: now.Sub(t.t0).Nanoseconds(),
	})
	t.mu.Unlock()
	return now.Sub(s.start)
}

// currentPhase is the crawl phase span calls through the hooks belong to.
func (t *tracer) currentPhase() spanRef {
	if t == nil {
		return spanRef{}
	}
	if p := t.phase.Load(); p != nil {
		return *p
	}
	return spanRef{}
}

// layerTime is one span name's totals over a trace.
type layerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes sums, per span name, the spans' durations and their self
// time: a span's duration minus the part of its interval covered by its
// children. Children may overlap each other (parallel fetches under one
// crawl phase); covered time is the union of their intervals, clipped to
// the parent's.
func selfTimes(spans []span) []layerTime {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*layerTime{}
	for _, s := range spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		dur := s.End - s.Start
		lt.Count++
		lt.TotalMS += float64(dur) / 1e6
		lt.SelfMS += float64(dur-covered(s, children[s.ID])) / 1e6
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// covered is the length of the union of the children's intervals within
// the parent's interval.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// writeTrace stores the spans and their per-layer self times as JSON.
func (t *tracer) writeTrace(path string) ([]layerTime, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	layers := selfTimes(t.spans)
	f, err := os.Create(path)
	if err != nil {
		return layers, err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Layers []layerTime `json:"layers"`
		Spans  []span      `json:"spans"`
	}{layers, t.spans}); err != nil {
		f.Close()
		return layers, err
	}
	return layers, f.Close()
}

// hookCounts are the counts the wrapped hooks take. Times are nanoseconds.
type hookCounts struct {
	fetchRequests, fetchNanos, fetchBytes atomic.Int64
	dnsLookups, dnsNanos                  atomic.Int64
	sinkRows, sinkBytes                   atomic.Int64
}

// tracedTransport times every round trip the crawler makes to the Web.
type tracedTransport struct {
	next http.RoundTripper
	tr   *tracer
	c    *hookCounts
	// fetched records every URL answered 200, for replaying the crawl's own
	// pages through the parse and classify layers.
	mu      sync.Mutex
	fetched []string
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	phase := t.tr.currentPhase()
	s := t.tr.begin("fetch.transport", phase)
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	t.c.fetchNanos.Add(time.Since(start).Nanoseconds())
	t.tr.end(s, phase)
	t.c.fetchRequests.Add(1)
	if err == nil {
		t.c.fetchBytes.Add(resp.ContentLength)
		if resp.StatusCode == http.StatusOK {
			t.mu.Lock()
			t.fetched = append(t.fetched, req.URL.String())
			t.mu.Unlock()
		}
	}
	return resp, err
}

// tracedDNS times every lookup that reaches a name server (cache misses).
type tracedDNS struct {
	next dns.Server
	tr   *tracer
	c    *hookCounts
}

func (d tracedDNS) Lookup(ctx context.Context, host string) (dns.Record, error) {
	phase := d.tr.currentPhase()
	s := d.tr.begin("dns.lookup", phase)
	start := time.Now()
	rec, err := d.next.Lookup(ctx, host)
	d.c.dnsNanos.Add(time.Since(start).Nanoseconds())
	d.tr.end(s, phase)
	d.c.dnsLookups.Add(1)
	return rec, err
}

// countingSink counts the rows the crawler writes and their payload bytes.
type countingSink struct{ c *hookCounts }

func (s countingSink) PutDoc(d store.Document) {
	s.c.sinkRows.Add(1)
	s.c.sinkBytes.Add(int64(len(d.URL) + len(d.Title) + len(d.Text)))
}
func (s countingSink) PutLink(l store.Link) {
	s.c.sinkRows.Add(1)
	s.c.sinkBytes.Add(int64(len(l.From) + len(l.To) + len(l.Anchor)))
}
func (s countingSink) PutRedirect(r store.Redirect) {
	s.c.sinkRows.Add(1)
	s.c.sinkBytes.Add(int64(len(r.From) + len(r.To)))
}
func (s countingSink) PutTopic(url, topic string, _ float64) {
	s.c.sinkRows.Add(1)
	s.c.sinkBytes.Add(int64(len(url) + len(topic)))
}
func (s countingSink) Flush() error { return nil }

// spanHeader carries the client's request span to the wrapped handler, so
// the handler span is a child in the same trace.
const spanHeader = "X-Bench-Span"

// timedHandler wraps a server handler: it times every request into
// samples (microseconds) and, when tracing, records a span under the
// client's request span.
type timedHandler struct {
	next    http.Handler
	name    string
	tr      *tracer
	mu      sync.Mutex
	samples []float64
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent := parseSpanHeader(r.Header.Get(spanHeader))
	s := h.tr.begin(h.name, parent)
	start := time.Now()
	h.next.ServeHTTP(w, r)
	us := float64(time.Since(start).Nanoseconds()) / 1e3
	h.tr.end(s, parent)
	h.mu.Lock()
	h.samples = append(h.samples, us)
	h.mu.Unlock()
}

func (h *timedHandler) take() []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.samples
	h.samples = nil
	return out
}

func formatSpanHeader(s spanRef) string {
	return strconv.FormatUint(s.id, 10) + "/" + strconv.FormatUint(s.trace, 10)
}

func parseSpanHeader(v string) spanRef {
	for i := 0; i < len(v); i++ {
		if v[i] == '/' {
			id, err1 := strconv.ParseUint(v[:i], 10, 64)
			trace, err2 := strconv.ParseUint(v[i+1:], 10, 64)
			if err1 == nil && err2 == nil {
				return spanRef{id: id, trace: trace}
			}
			break
		}
	}
	return spanRef{}
}
