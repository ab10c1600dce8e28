package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"github.com/bingo-search/bingo/internal/core"
	"github.com/bingo-search/bingo/internal/corpus"
	"github.com/bingo-search/bingo/internal/store"
)

// servePlan sizes the serve workload: the warm-up fills most of the result
// cache, and the fixed-rate phase runs about six seconds at half capacity.
var servePlan = servingPlan{warm: 1500, slice: 1000, fixed: 2500}

// The serve workload's cache hit ratio at the fixed rate must stay in this
// band (it reads about 0.75): below it the cache carries little load, above
// it scoring does.
const (
	minHitRatio = 0.4
	maxHitRatio = 0.95
)

// poolSize is the number of distinct queries; zipfS skews the draw so the
// 4096-entry cache holds the hot head and the tail misses.
const (
	poolSize = 20000
	zipfS    = 1.05
)

// buildServedCorpus crawls the portal of w into a tiered store under dir,
// freezes every shard into segments, closes it and reopens it the way
// portald -data-dir boots. It returns the reopened store and the crawl,
// whose engine is closed. With tr set, the crawl is traced and its layer
// metrics are recorded before the engine closes.
func buildServedCorpus(ctx context.Context, w *corpus.World, dir string, res *result, tr *tracer) (*store.Store, *crawlResult, error) {
	cr, err := crawlPortal(ctx, w, tr, func(c *core.Config) { c.DataDir = dir }, nil)
	if err != nil {
		return nil, nil, err
	}
	res.gate(checkCrawl(w, cr))
	st := cr.eng.Store()
	for i := 0; i < st.NumShards(); i++ {
		if err := st.FreezeShard(i); err != nil {
			cr.eng.Close()
			return nil, nil, fmt.Errorf("freeze shard %d: %w", i, err)
		}
	}
	if tr != nil {
		crawlLayers(res, w, cr, dir)
	}
	if err := cr.eng.Close(); err != nil {
		return nil, nil, err
	}
	st, err = store.OpenTiered(dir, 0, store.TierOptions{})
	return st, cr, err
}

// serve: a read-only portal over a frozen tiered store, open-loop /search
// from a Zipf draw over a large pool of distinct queries. The cache and
// scoring both carry load; nothing is crawled while it runs.
func runServe(ctx context.Context, cfg runCfg, res *result) error {
	var st *store.Store
	var p *portalServer
	var crawls crawlSeries
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var base counterSnap // taken as the kept setup starts
	setup, n, err := measureSetup(func(i int) error {
		if p != nil {
			p.close()
			st.Close()
		}
		dir := filepath.Join(cfg.work, fmt.Sprintf("serve-%d", i))
		var rtr *tracer
		if i == setupReps-1 {
			rtr = tr
			base = readCounters()
		}
		// Each setup builds its corpus from another world, so the portal's
		// quality numbers are a median over three worlds.
		var cr *crawlResult
		var err error
		if st, cr, err = buildServedCorpus(ctx, newWorld(cfg.seed, i), dir, res, rtr); err != nil {
			return err
		}
		crawls.add(cr)
		p = startPortal(st, tr)
		_, _, err = newHTTPSearcher(p.srv.URL, nil, 1, nil).get(ctx, "q=database", spanRef{})
		return err
	})
	if err != nil {
		return err
	}
	defer func() {
		p.close()
		st.Close()
	}()
	pool, err := buildQueryPool(st, cfg.seed, poolSize)
	if err != nil {
		return err
	}
	draws := zipfDraws(cfg.seed, len(pool.strs), 200000, zipfS)
	mix := make([]string, len(draws))
	for i, d := range draws {
		mix[i] = pool.strs[d]
	}
	gateIdx := sampleIdx(len(pool.strs), 40)
	res.gate(checkServe(ctx, p, pool, gateIdx))

	h := newHTTPSearcher(p.srv.URL, mix, runtime.NumCPU(), tr)
	defer h.close()
	var handlers []*timedHandler
	if p.handler != nil {
		handlers = append(handlers, p.handler)
	}
	sv := measureServing(ctx, servePlan.scaled(cfg.seconds), res, h, handlers, tr)
	res.gate(checkServe(ctx, p, pool, gateIdx))
	hits, misses := float64(sv.c["servecache_hits_total"]), float64(sv.c["servecache_misses_total"])
	if hr := ratio(hits, hits+misses); hr < minHitRatio || hr > maxHitRatio {
		res.gate(fmt.Errorf("serve shape: cache hit ratio %.2f outside [%.2f, %.2f]: cache and scoring no longer both carry load", hr, minHitRatio, maxHitRatio))
	}
	servingMetrics(res, setup, n, &crawls, st.NumDocs(), liveHeap(), sv)
	if tr != nil {
		servingLayers(res, sv, base)
		res.layer("trace.overhead_ratio", "ratio", sv.overhead, 2)
		if err := probeQueryPath(ctx, cfg, res, st, tr, probeSearch|probeCoord); err != nil {
			return err
		}
		return finishTrace(cfg, res, tr)
	}
	return nil
}

// servingRun is what the measurement of a serving workload saw.
type servingRun struct {
	capacity []float64 // closed-loop q/s per saturation slice
	satP99   float64   // closed-loop p99 at saturation (+Inf if unreportable)
	fixed    rateResult
	c        counterSnap // program counters over the fixed-rate phase
	// Traced runs only: the wrapped handlers' times during traced quarters
	// (microseconds) and the tracing overhead.
	handlerUS []float64
	overhead  float64
}

// maxQPS is search_max_qps read off the run's two measured rates: the
// saturation throughput when the closed loop at saturation met the SLO,
// else the fixed rate when that step met it, else 0.
func (sv *servingRun) maxQPS() float64 {
	switch {
	case sv.satP99 <= sloP99.Seconds():
		return median(sv.capacity)
	case sv.fixed.sloMet():
		return sv.fixed.rate
	}
	return 0
}

// saturationSlices is how many slices the saturation phase is cut into;
// the capacity is their median.
const saturationSlices = 3

// servingPlan sizes a serving measurement in queries, for a run of
// planSeconds; a run of another length scales every phase. Counting
// queries instead of seconds makes each phase start from the same cache
// state on every run of a seed, however fast the machine is that day.
type servingPlan struct {
	warm, slice, fixed int
}

const planSeconds = 15

func (p servingPlan) scaled(d time.Duration) servingPlan {
	k := d.Seconds() / planSeconds
	n := func(x int) int { return max(int(float64(x)*k), 100) }
	return servingPlan{warm: n(p.warm), slice: n(p.slice), fixed: n(p.fixed)}
}

// measureServing warms the server up (not measured), drives it to
// saturation with nproc closed-loop clients in three slices, then offers
// half the measured capacity open-loop.
//
// With tr set, the fixed-rate phase is traced in alternating untraced and
// traced quarters, and the tracing overhead is the ratio of their queries
// per CPU-second.
func measureServing(ctx context.Context, plan servingPlan, res *result, h *httpSearcher, handlers []*timedHandler, tr *tracer) *servingRun {
	sv := &servingRun{}
	tracing := func(on bool) {
		t := tr
		if !on {
			t = nil
		}
		h.tr = t
		for _, th := range handlers {
			th.tr = t
			th.take()
		}
	}
	tracing(false)
	// Warm-up: fill the result cache and the lazily built per-snapshot
	// state the way a serving portal has them.
	warm := closedLoop(ctx, runtime.NumCPU(), 0, plan.warm, h.send)
	h.offset += int(warm.Attempted)
	var sat loadResult
	for i := 0; i < saturationSlices; i++ {
		r := closedLoop(ctx, runtime.NumCPU(), 0, plan.slice, h.send)
		h.offset += int(r.Attempted)
		sv.capacity = append(sv.capacity, float64(r.OK)/r.Elapsed.Seconds())
		sat.merge(r)
	}
	res.Attempted += sat.Attempted
	res.Failed += sat.Failed()
	sv.satP99 = math.Inf(1)
	if p99, ok := percentile(sat.Latencies, 0.99); ok {
		sv.satP99 = p99
	}
	rate := max(median(sv.capacity)/2, 1)
	forQueries := func(n int) time.Duration { return time.Duration(float64(n) / rate * float64(time.Second)) }
	before := readCounters()
	if tr == nil {
		sv.fixed = runRate(ctx, h, rate, forQueries(plan.fixed))
		h.offset += int(sv.fixed.res.Attempted)
	} else {
		var plain, traced []float64
		for q := 0; q < 4; q++ {
			on := q%2 == 1
			tracing(on)
			r := runRate(ctx, h, rate, forQueries(plan.fixed/4))
			h.offset += int(r.res.Attempted)
			if !on {
				plain = append(plain, ratio(float64(r.res.OK), r.cpu))
				continue
			}
			traced = append(traced, ratio(float64(r.res.OK), r.cpu))
			for _, th := range handlers {
				sv.handlerUS = append(sv.handlerUS, th.take()...)
			}
			sv.fixed = r
		}
		tracing(false)
		sv.overhead = median(plain)/median(traced) - 1
	}
	sv.c = readCounters().since(before)
	res.Attempted += sv.fixed.res.Attempted
	res.Failed += sv.fixed.res.Failed()
	return sv
}

// servingMetrics records the serving family's end-to-end metrics. The
// portal's quality numbers come from the setup crawls that built it.
func servingMetrics(res *result, setup float64, setupN int, crawls *crawlSeries, docs int, heap float64, sv *servingRun) {
	f := sv.fixed
	ok := int(f.res.OK)
	res.e2e("setup_s", "s", setup, setupN)
	res.e2e("throughput_per_s", "1/s", median(sv.capacity), len(sv.capacity))
	res.e2e("throughput_per_cpu_s", "1/cpu-s", ratio(float64(f.res.OK), f.cpu), ok)
	res.e2e("portal_precision", "ratio", median(crawls.precision), len(crawls.precision))
	res.e2e("author_recall", "ratio", median(crawls.recall), len(crawls.recall))
	res.e2e("heap_bytes_per_doc", "B/doc", heap/float64(docs), 1)

	res.detail("search_capacity_qps", "q/s", median(sv.capacity), len(sv.capacity))
	res.detail("search_max_qps", "q/s", sv.maxQPS(), 2)
	res.detail("search_fixed_rate", "q/s", f.rate, 1)
	res.detail("search_p50_ms", "ms", f.p50*1e3, len(f.res.Latencies))
	tailDetail(res, "search", f.res.Latencies)
	res.detail("search_queries_per_cpu_s", "q/CPU-s", ratio(float64(f.res.OK), f.cpu), ok)
	res.detail("failed_ratio", "ratio", ratio(float64(f.res.Failed()), float64(f.res.Attempted)), int(f.res.Attempted))
	hits, misses := float64(sv.c["servecache_hits_total"]), float64(sv.c["servecache_misses_total"])
	res.detail("servecache_hit_ratio", "ratio", ratio(hits, hits+misses), int(hits+misses))
	late, n := lateMS(f.res)
	res.detail("generator_late_ms", "ms", late, n)
	res.detail("crawl_pages_per_s", "pages/s", median(crawls.pagesPerS), len(crawls.pagesPerS))
	fixedP99 := "n/a"
	if f.p99ok {
		fixedP99 = fmtValue(f.p99*1e3) + "ms"
	}
	res.Notes = append(res.Notes, fmt.Sprintf("saturation %.0f q/s (slices %.0f), p99 %sms; fixed %.0f q/s: p99 %s, backlog grew %v, failed %d",
		median(sv.capacity), sv.capacity, fmtValue(sv.satP99*1e3), f.rate, fixedP99, f.backlogGrew, f.res.Failed()))
}
