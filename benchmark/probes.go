package main

import (
	"context"
	"path/filepath"
	"runtime"
	"time"

	"github.com/bingo-search/bingo/internal/store"
)

// Query-path probes of a traced run. A workload whose own load does not
// pass through a query-path layer measures it with a short probe over the
// workload's corpus, so every traced run reports every layer.
const (
	probeSearch = 1 << iota // direct search.Engine.Search on the query mix
	probeServe              // open-loop /search through serve.API
	probeCoord              // coordinator over in-process shard servers
	probeAll    = probeSearch | probeServe | probeCoord
)

const (
	probeQueries = 2000
	probeRate    = 200 // q/s, well below every workload's capacity
)

// probeQueryPath measures the query-path layers named in which over st.
func probeQueryPath(ctx context.Context, cfg runCfg, res *result, st *store.Store, tr *tracer, which int) error {
	pool, err := buildQueryPool(st, cfg.seed, poolSize)
	if err != nil {
		return err
	}
	draws := zipfDraws(cfg.seed, len(pool.strs), probeQueries, zipfS)
	if which&probeSearch != 0 {
		p := startPortal(st, nil)
		p.eng.Search(pool.queries[0]) // build the snapshot outside the timing
		var us []float64
		for _, d := range draws {
			s := tr.begin("search.query", spanRef{})
			t0 := time.Now()
			p.eng.Search(pool.queries[d])
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
			tr.end(s, spanRef{})
		}
		p.close()
		p50, _ := percentile(us, 0.5)
		p99 := p99OrMax(us)
		res.layer("search.query_us_p50", "us", p50, len(us))
		res.layer("search.query_us_p99", "us", p99, len(us))
	}
	if which&probeServe != 0 {
		before := readCounters()
		p := startPortal(st, tr)
		mix := make([]string, len(draws))
		for i, d := range draws {
			mix[i] = pool.strs[d]
		}
		h := newHTTPSearcher(p.srv.URL, mix, runtime.NumCPU(), tr)
		r := runRate(ctx, h, probeRate, time.Duration(float64(probeQueries)/probeRate*float64(time.Second)))
		servingLayers(res, &servingRun{fixed: r, c: readCounters().since(before), handlerUS: p.handler.take()}, before)
		h.close()
		p.close()
	}
	if which&probeCoord != 0 {
		f, err := startFleet(ctx, st, filepath.Join(cfg.work, "probe-fleet"), tr)
		if err != nil {
			return err
		}
		defer f.close()
		coordLayers(ctx, res, f, pool, draws, tr)
	}
	return nil
}

// servingLayers records the layer metrics of a traced serving
// measurement: the wrapped handlers' times, the cache, admission and the
// open-loop generator's lateness over the fixed-rate phase, the search
// snapshot counters since base (the kept setup's start, so the builds that
// setup's first queries paid are included).
func servingLayers(res *result, sv *servingRun, base counterSnap) {
	p50, _ := percentile(sv.handlerUS, 0.5)
	p99 := p99OrMax(sv.handlerUS)
	res.layer("serve.handler_us_p50", "us", p50, len(sv.handlerUS))
	res.layer("serve.handler_us_p99", "us", p99, len(sv.handlerUS))
	c := sv.c
	hits, misses := float64(c["servecache_hits_total"]), float64(c["servecache_misses_total"])
	res.layer("servecache.hit_ratio", "ratio", ratio(hits, hits+misses), int(hits+misses))
	res.layer("admit.shed", "count", float64(c["admit_shed_total"]), 1)
	res.layer("admit.wait_s", "s", float64(c["admit_wait_nanos#sum"])/1e9, int(c["admit_wait_nanos#count"]))
	late, n := lateMS(sv.fixed.res)
	res.layer("driver.late_ms", "ms", late, n)
	snapshotLayers(res, readCounters().since(base))
}

// snapshotLayers records the search snapshot counters.
func snapshotLayers(res *result, c counterSnap) {
	res.layer("search.snapshot_rebuilds", "count", float64(c["search_snapshot_rebuilds_total"]), 1)
	res.layer("search.snapshot_build_s", "s", float64(c["search_snapshot_build_nanos#sum"])/1e9, int(c["search_snapshot_build_nanos#count"]))
	res.layer("search.stale_serves", "count", float64(c["search_stale_serves_total"]), 1)
}

// coordLayers times Coordinator.Search directly over the query draws and
// reads the shard handlers' times and the RPC client's counters.
func coordLayers(ctx context.Context, res *result, f *fleet, pool *queryPool, draws []int, tr *tracer) {
	for _, h := range f.handlers {
		if h != nil {
			h.take()
		}
	}
	before := readCounters()
	var us []float64
	for _, d := range draws {
		s := tr.begin("coord.search", spanRef{})
		t0 := time.Now()
		_, err := f.coord.Search(ctx, pool.queries[d])
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		tr.end(s, spanRef{})
		if err != nil {
			res.gate(err)
			return
		}
	}
	c := readCounters().since(before)
	var calls, serverUS float64
	for _, h := range f.handlers {
		if h != nil {
			for _, v := range h.take() {
				calls++
				serverUS += v
			}
		}
	}
	p50, _ := percentile(us, 0.5)
	p99 := p99OrMax(us)
	res.layer("coord.search_us_p50", "us", p50, len(us))
	res.layer("coord.search_us_p99", "us", p99, len(us))
	res.layer("rpc.calls_per_query", "ratio", calls/float64(len(us)), len(us))
	res.layer("rpc.server_us_per_query", "us", serverUS/float64(len(us)), int(calls))
	res.layer("rpc.hedges", "count", float64(c["rpc_client_hedges_total"]), 1)
}
