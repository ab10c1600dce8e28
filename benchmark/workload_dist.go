package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"

	"github.com/bingo-search/bingo/internal/search"
)

// distPlan sizes serve-dist, whose coordinator has no result cache and
// answers about a fifth as many queries per second as serve.
var distPlan = servingPlan{warm: 300, slice: 250, fixed: 900}

// serve-dist: the serve corpus and query mix through the coordinator over
// two in-process shard servers. Only this workload's load crosses coord
// and rpc; set against serve it isolates the cost of the RPC hop.
func runServeDist(ctx context.Context, cfg runCfg, res *result) error {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var cr *crawlResult
	var f *fleet
	var crawls crawlSeries
	var base counterSnap // taken as the kept setup starts
	setup, n, err := measureSetup(func(i int) error {
		if f != nil {
			f.close()
			cr.eng.Close()
		}
		w := newWorld(cfg.seed, i)
		var rtr *tracer
		if i == setupReps-1 {
			rtr = tr
			base = readCounters()
		}
		var err error
		if cr, err = crawlPortal(ctx, w, rtr, nil, nil); err != nil {
			return err
		}
		res.gate(checkCrawl(w, cr))
		crawls.add(cr)
		if rtr != nil {
			crawlLayers(res, w, cr, "")
		}
		f, err = startFleet(ctx, cr.eng.Store(), filepath.Join(cfg.work, fmt.Sprintf("fleet-%d", i)), tr)
		if err != nil {
			return err
		}
		_, _, err = newHTTPSearcher(f.api.URL, nil, 1, nil).get(ctx, "q=database", spanRef{})
		return err
	})
	if err != nil {
		return err
	}
	defer func() {
		f.close()
		cr.eng.Close()
	}()
	st := cr.eng.Store()
	pool, err := buildQueryPool(st, cfg.seed, poolSize)
	if err != nil {
		return err
	}
	local := search.New(st)
	gateIdx := sampleIdx(len(pool.strs), 40)
	res.gate(checkFleet(ctx, f, local, pool, gateIdx))

	draws := zipfDraws(cfg.seed, len(pool.strs), 200000, zipfS)
	mix := make([]string, len(draws))
	for i, d := range draws {
		mix[i] = pool.strs[d]
	}
	h := newHTTPSearcher(f.api.URL, mix, runtime.NumCPU(), tr)
	h.degraded = degradedAnswer
	defer h.close()
	var handlers []*timedHandler
	for _, th := range f.handlers {
		if th != nil {
			handlers = append(handlers, th)
		}
	}
	sv := measureServing(ctx, distPlan.scaled(cfg.seconds), res, h, handlers, tr)
	res.gate(checkFleet(ctx, f, local, pool, gateIdx))
	servingMetrics(res, setup, n, &crawls, st.NumDocs(), liveHeap(), sv)
	if tr != nil {
		// The load crossed the coordinator, not serve.API: only the
		// generator and the shards' search snapshots are its own; the
		// serve probe below measures serve, servecache and admit.
		late, n := lateMS(sv.fixed.res)
		res.layer("driver.late_ms", "ms", late, n)
		snapshotLayers(res, readCounters().since(base))
		res.layer("trace.overhead_ratio", "ratio", sv.overhead, 2)
		coordLayers(ctx, res, f, pool, draws[:probeQueries], tr)
		if err := probeQueryPath(ctx, cfg, res, st, tr, probeSearch|probeServe); err != nil {
			return err
		}
		return finishTrace(cfg, res, tr)
	}
	return nil
}
