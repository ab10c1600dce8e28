package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"github.com/bingo-search/bingo/internal/admit"
	"github.com/bingo-search/bingo/internal/search"
	"github.com/bingo-search/bingo/internal/serve"
	"github.com/bingo-search/bingo/internal/servecache"
	"github.com/bingo-search/bingo/internal/store"
)

// sloP99 is the search latency limit (ROADMAP: p99 <= 10ms).
const sloP99 = 10 * time.Millisecond

// cacheEntries is portald's default result cache size.
const cacheEntries = 4096

// portalServer is one single-process portal: serve.API with portald's
// default cache and admission settings over a store, on a loopback
// listener.
type portalServer struct {
	eng     *search.Engine
	handler *timedHandler // nil when untraced
	srv     *httptest.Server
}

func startPortal(st *store.Store, tr *tracer) *portalServer {
	eng := search.New(st)
	api := serve.New(st, eng, serve.Options{
		Cache: servecache.New(cacheEntries),
		Admission: admit.New(admit.Options{
			MaxInFlight:  64,
			MaxQueue:     128,
			QueueTimeout: 100 * time.Millisecond,
			RetryAfter:   time.Second,
		}),
	})
	api.SetReady(true)
	p := &portalServer{eng: eng}
	var h http.Handler = api.Handler()
	if tr != nil {
		p.handler = &timedHandler{next: h, name: "serve.handler", tr: tr}
		h = p.handler
	}
	p.srv = httptest.NewServer(h)
	return p
}

func (p *portalServer) close() { p.srv.Close() }

// hitJSON mirrors serve's wire shape of one hit, so a direct
// search.Engine answer can be compared byte for byte with /search.
type hitJSON struct {
	URL        string  `json:"url"`
	Title      string  `json:"title"`
	Topic      string  `json:"topic"`
	Tenant     string  `json:"tenant,omitempty"`
	Score      float64 `json:"score"`
	Cosine     float64 `json:"cosine"`
	Confidence float64 `json:"confidence"`
	Authority  float64 `json:"authority"`
}

func marshalHits(hits []search.Hit) []byte {
	out := make([]hitJSON, len(hits))
	for i, h := range hits {
		out[i] = hitJSON{h.Doc.URL, h.Doc.Title, h.Doc.Topic, h.Doc.Tenant, h.Score, h.Cosine, h.Confidence, h.Authority}
	}
	b, _ := json.Marshal(out)
	return b
}

// sampleIdx picks up to n pool indices spread over the pool, hot head
// first.
func sampleIdx(poolSize, n int) []int {
	var out []int
	for i := 0; i < n && i < poolSize; i++ {
		out = append(out, i*poolSize/n)
	}
	return out
}

// checkServe is the serve gate: for sampled queries, /search returns hits
// byte-identical to a direct search.Engine.Search on the same store.
func checkServe(ctx context.Context, p *portalServer, pool *queryPool, idx []int) error {
	h := newHTTPSearcher(p.srv.URL, pool.strs, 1, nil)
	defer h.close()
	for _, i := range idx {
		code, body, err := h.get(ctx, pool.strs[i], spanRef{})
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("serve gate: /search?%s: status %d: %v", pool.strs[i], code, err)
		}
		var doc struct {
			Hits json.RawMessage `json:"hits"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			return fmt.Errorf("serve gate: /search?%s: %v", pool.strs[i], err)
		}
		if want := marshalHits(p.eng.Search(pool.queries[i])); !bytes.Equal(doc.Hits, want) {
			return fmt.Errorf("serve gate: /search?%s differs from search.Engine.Search:\n got %s\nwant %s", pool.strs[i], doc.Hits, want)
		}
	}
	return nil
}

// rateResult is one open-loop step at a fixed offered rate.
type rateResult struct {
	rate     float64
	res      loadResult
	p50, p99 float64 // seconds; +Inf when failures reach the percentile
	p99ok    bool    // enough samples beyond p99 to report it
	cpu      float64 // process CPU seconds during the step
	// backlogGrew reports latency (from the schedule) rising by more than
	// the SLO from the step's first quarter to its last: the server fell
	// behind the offered rate.
	backlogGrew bool
}

// sloMet is the search_max_qps criterion: nothing failed, p99 within the
// SLO, no growing backlog.
func (r rateResult) sloMet() bool {
	return r.res.Failed() == 0 && r.p99ok && r.p99 <= sloP99.Seconds() && !r.backlogGrew
}

// runRate offers rate for dur through the searcher over at most nproc
// connections.
func runRate(ctx context.Context, h *httpSearcher, rate float64, dur time.Duration) rateResult {
	cpu0 := cpuSeconds()
	res := openLoop(ctx, rate, dur, runtime.NumCPU(), time.Second, h.send)
	r := rateResult{rate: rate, res: res, cpu: cpuSeconds() - cpu0}
	r.p50, _ = percentile(res.Latencies, 0.5)
	r.p99, r.p99ok = percentile(res.Latencies, 0.99)
	if q := len(res.Ordered) / 4; q > 0 {
		first, last := median(res.Ordered[:q]), median(res.Ordered[len(res.Ordered)-q:])
		r.backlogGrew = last-first > sloP99.Seconds()
	}
	return r
}

// lateMS is how late the generator issued operations: p99 (or the
// maximum, with too few samples), in milliseconds.
func lateMS(res loadResult) (float64, int) {
	return p99OrMax(res.Late) * 1e3, len(res.Late)
}
