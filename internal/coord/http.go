package coord

// This file is the coordinator's public face: a /search handler accepting
// exactly the same parameter surface as the single-process API (it reuses
// serve.ParseQuery) and answering in the same JSON shape, extended with
// the degradation fields a distributed answer needs. A degraded answer is
// still HTTP 200 — the hits are correct for the reachable partitions —
// with "degraded": true and the missing shard addresses listed; only a
// fleet with no reachable shard at all earns a 503.

import (
	"encoding/json"
	"errors"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/bingo-search/bingo/internal/serve"
)

// API is the coordinator's HTTP surface: /search, /healthz, /readyz.
// Create with NewAPI, mount with Handler.
type API struct {
	coord *Coordinator
	ready atomic.Bool
	mux   *http.ServeMux
}

// NewAPI builds the HTTP surface over c. The API starts not-ready.
func NewAPI(c *Coordinator) *API {
	a := &API{coord: c}
	a.mux = http.NewServeMux()
	a.mux.HandleFunc("/search", a.HandleSearch)
	a.mux.HandleFunc("/healthz", a.handleHealthz)
	a.mux.HandleFunc("/readyz", a.handleReadyz)
	return a
}

// Handler returns the API's mux.
func (a *API) Handler() http.Handler { return a.mux }

// SetReady flips what /readyz reports — false as the first step of a
// drain, so load balancers stop routing before in-flight queries finish.
func (a *API) SetReady(ready bool) { a.ready.Store(ready) }

// Ready reports the readiness gate.
func (a *API) Ready() bool { return a.ready.Load() }

func (a *API) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("ok\n"))
}

func (a *API) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !a.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("draining\n"))
		return
	}
	w.Write([]byte("ready\n"))
}

// searchResponse is the coordinator's /search answer: the single-process
// response shape plus the distributed provenance and degradation fields.
type searchResponse struct {
	// Query, K, TookNanos, and Hits mirror the single-process response.
	Query     string    `json:"query"`
	K         int       `json:"k"`
	TookNanos int64     `json:"took_ns"`
	Hits      []hitJSON `json:"hits"`
	// Version is the global-stats version the answer was computed under.
	Version string `json:"version"`
	// Degraded is true when at least one shard did not contribute.
	Degraded bool `json:"degraded"`
	// MissingShards lists the base addresses of non-contributing shards.
	MissingShards []string `json:"missing_shards,omitempty"`
}

// hitJSON is one ranked result, field-compatible with the single-process
// API's hit shape (Tenant omitted for the default tenant).
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

// HandleSearch answers GET /search by scatter-gathering over the fleet.
func (a *API) HandleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	q, msg, ok := serve.ParseQuery(r, a.coord.opt.MaxK)
	if !ok {
		http.Error(w, msg, http.StatusBadRequest)
		return
	}
	start := time.Now()
	res, err := a.coord.Search(r.Context(), q)
	if err != nil {
		if errors.Is(err, ErrAllShardsDown) {
			http.Error(w, "no shard server reachable", http.StatusServiceUnavailable)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	hits := make([]hitJSON, len(res.Hits))
	for i, h := range res.Hits {
		hits[i] = hitJSON{
			URL:        h.URL,
			Title:      h.Title,
			Topic:      h.Topic,
			Tenant:     h.Tenant,
			Score:      h.Score,
			Cosine:     h.Cosine,
			Confidence: h.Confidence,
			Authority:  h.Authority,
		}
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = json.NewEncoder(w).Encode(searchResponse{
		Query:         q.Text,
		K:             q.Limit,
		TookNanos:     time.Since(start).Nanoseconds(),
		Hits:          hits,
		Version:       res.Version,
		Degraded:      res.Degraded,
		MissingShards: res.Missing,
	})
}
