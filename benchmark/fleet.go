package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"

	"github.com/bingo-search/bingo/internal/coord"
	"github.com/bingo-search/bingo/internal/rpc"
	"github.com/bingo-search/bingo/internal/search"
	"github.com/bingo-search/bingo/internal/store"
)

// fleetShards is the number of in-process shard servers of serve-dist.
const fleetShards = 2

// ingestChunk is how many documents the shard load sends between router
// flushes: the router drops whole batches once a server's 8-batch queue
// is full, so an unflushed loop loses most rows.
const ingestChunk = 64

// fleet is a coordinator over in-process shard servers holding a corpus
// partitioned by store.RouteURL, and the coordinator's /search API.
type fleet struct {
	stores   []*store.Store
	shards   []*httptest.Server
	handlers []*timedHandler // per shard; nil entries when untraced
	coord    *coord.Coordinator
	api      *httptest.Server
}

// startFleet loads every document, link and redirect of st into
// fleetShards shard servers through the coordinator's ingest router,
// freezes each shard server's tiered store under dir into segments (the
// serve workload's storage), and syncs global statistics and authority.
func startFleet(ctx context.Context, st *store.Store, dir string, tr *tracer) (*fleet, error) {
	f := &fleet{}
	addrs := make([]string, fleetShards)
	for i := range addrs {
		sst, err := store.OpenTiered(filepath.Join(dir, fmt.Sprintf("shard-%d", i)), 4, store.TierOptions{})
		if err != nil {
			f.close()
			return nil, err
		}
		f.stores = append(f.stores, sst)
		srv := rpc.NewServer(sst)
		srv.SetReady(true)
		var h http.Handler = srv.Handler()
		var th *timedHandler
		if tr != nil {
			th = &timedHandler{next: h, name: "rpc.server", tr: tr}
			h = th
		}
		f.handlers = append(f.handlers, th)
		hs := httptest.NewServer(h)
		f.shards = append(f.shards, hs)
		addrs[i] = hs.URL
	}
	c, err := coord.New(addrs, coord.Options{ProbeInterval: -1})
	if err != nil {
		f.close()
		return nil, err
	}
	f.coord = c
	router := coord.NewRouter(c.Clients(), coord.RouterOptions{})
	docs := st.All()
	for i, d := range docs {
		router.PutDoc(d)
		if (i+1)%ingestChunk == 0 {
			if err := router.Flush(); err != nil {
				router.Close()
				f.close()
				return nil, fmt.Errorf("shard load: %w", err)
			}
		}
	}
	links := 0
	st.VisitLinks(func(l store.Link) bool {
		router.PutLink(l)
		links++
		if links%(8*ingestChunk) == 0 {
			err = router.Flush()
		}
		return err == nil
	})
	for _, r := range st.Redirects() {
		router.PutRedirect(r)
	}
	if err == nil {
		err = router.Close()
	} else {
		router.Close()
	}
	if err != nil {
		f.close()
		return nil, fmt.Errorf("shard load: %w", err)
	}
	var dropped int64
	for _, a := range router.Acks() {
		dropped += a.DroppedRows
	}
	if dropped != 0 {
		f.close()
		return nil, fmt.Errorf("shard load dropped %d rows", dropped)
	}
	for _, sst := range f.stores {
		for i := 0; i < sst.NumShards(); i++ {
			if err := sst.FreezeShard(i); err != nil {
				f.close()
				return nil, fmt.Errorf("freeze shard server store: %w", err)
			}
		}
	}
	if err := c.Sync(ctx); err != nil {
		f.close()
		return nil, fmt.Errorf("coordinator sync: %w", err)
	}
	if err := c.SyncAuth(ctx); err != nil {
		f.close()
		return nil, fmt.Errorf("coordinator auth sync: %w", err)
	}
	if got := c.TotalDocs(); got != len(docs) {
		f.close()
		return nil, fmt.Errorf("fleet holds %d docs, corpus has %d", got, len(docs))
	}
	f.api = httptest.NewServer(coord.NewAPI(c).Handler())
	return f, nil
}

func (f *fleet) close() {
	if f.api != nil {
		f.api.Close()
	}
	for _, s := range f.shards {
		s.Close()
	}
	for _, st := range f.stores {
		st.Close()
	}
}

// checkFleet is the serve-dist gate: for sampled queries, the fleet's
// top-K is Float64bits-identical to single-process search over the whole
// corpus, and no answer is degraded.
func checkFleet(ctx context.Context, f *fleet, local *search.Engine, pool *queryPool, idx []int) error {
	for _, i := range idx {
		q := pool.queries[i]
		got, err := f.coord.Search(ctx, q)
		if err != nil {
			return fmt.Errorf("serve-dist gate: %q: %w", pool.strs[i], err)
		}
		if got.Degraded {
			return fmt.Errorf("serve-dist gate: %q degraded, missing %v", pool.strs[i], got.Missing)
		}
		want := local.Search(q)
		if len(got.Hits) != len(want) {
			return fmt.Errorf("serve-dist gate: %q: %d hits, single process %d", pool.strs[i], len(got.Hits), len(want))
		}
		for j, h := range got.Hits {
			w := want[j]
			if h.URL != w.Doc.URL || !sameBits(h.Score, w.Score) || !sameBits(h.Cosine, w.Cosine) ||
				!sameBits(h.Confidence, w.Confidence) || !sameBits(h.Authority, w.Authority) {
				return fmt.Errorf("serve-dist gate: %q hit %d: fleet %+v, single process %s %v", pool.strs[i], j, h, w.Doc.URL, w.Score)
			}
		}
	}
	return nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// degradedAnswer spots a coordinator answer missing shards.
func degradedAnswer(body []byte) bool {
	return bytes.Contains(body, []byte(`"degraded":true`))
}
