package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"github.com/bingo-search/bingo/internal/core"
	"github.com/bingo-search/bingo/internal/corpus"
	"github.com/bingo-search/bingo/internal/htmldoc"
	"github.com/bingo-search/bingo/internal/search"
	"github.com/bingo-search/bingo/internal/store"
)

// crawl-serve runs the portald -crawl -data-dir deployment: the crawl
// writes through a tiered store with the WAL fsynced at every flush and a
// memtable budget far below the corpus, so shards freeze and compact over
// and over, while expert searchers query /search. It is the
// write-beside-read case: every flush bumps store epochs, so the result
// cache rarely hits and queries wait on snapshot rebuilds.
const (
	// memtableBudget is about a seventh of the corpus's document payload
	// (the same ratio as 4 MiB to a world scaled 8x), so the crawl freezes
	// every shard many times and compacts.
	memtableBudget = 1 << 20
	// thinkTime is each searcher's pause between an answer and its next
	// query.
	thinkTime = 20 * time.Millisecond
	// minCrawlServes is the fewest crawls a run measures.
	minCrawlServes = crawlWorlds
)

// portalTopics are the topic paths of the databases portal's tree.
var portalTopics = []string{"ROOT/databases", "ROOT/OTHERS"}

func runCrawlServe(ctx context.Context, cfg runCfg, res *result) error {
	worlds := make([]*corpus.World, crawlWorlds)
	pools := make([]*queryPool, crawlWorlds)
	setup, n, err := measureSetup(func(int) error {
		for j := range worlds {
			worlds[j] = newWorld(cfg.seed, j)
			// The searchers' queries are drawn from the world's own pages:
			// the corpus they search does not exist yet when the crawl
			// starts.
			var texts []string
			for _, p := range worlds[j].Pages {
				if doc, err := htmldoc.Convert(p.ContentType, p.Body, nil); err == nil {
					texts = append(texts, doc.Text)
				}
			}
			var err error
			if pools[j], err = poolFromTexts(texts, portalTopics, cfg.seed, poolSize); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	draws := zipfDraws(cfg.seed, poolSize, 200000, zipfS)
	gateIdx := sampleIdx(poolSize, 20)

	var s, traced crawlSeries
	var queries loadResult
	var cold []float64
	var freezes, compactions int64
	var ttr *tracer // the traced iteration's tracer
	var last *store.Store
	defer func() {
		if last != nil {
			last.Close()
		}
	}()
	offset := 0
	deadline := time.Now().Add(cfg.seconds)
	for i := 0; i < minCrawlServes || time.Now().Before(deadline); i++ {
		// A traced run traces its second crawl only; the others measure the
		// untraced numbers the tracing overhead is taken against.
		var tr *tracer
		if cfg.trace && i == 1 {
			tr = newTracer()
			ttr = tr
		}
		dir := filepath.Join(cfg.work, fmt.Sprintf("crawl-serve-%d", i))
		w, pool := worlds[i%crawlWorlds], pools[i%crawlWorlds]
		mix := make([]string, len(draws))
		for k, d := range draws {
			mix[k] = pool.strs[d]
		}
		var p *portalServer
		var load loadResult
		during := func(eng *core.Engine) func() {
			p = startPortal(eng.Store(), tr)
			h := newHTTPSearcher(p.srv.URL, mix, runtime.NumCPU(), tr)
			h.offset = offset
			lctx, cancel := context.WithCancel(ctx)
			done := make(chan loadResult)
			go func() { done <- closedLoop(lctx, runtime.NumCPU(), thinkTime, 0, h.send) }()
			return func() {
				cancel()
				load = <-done
				h.close()
			}
		}
		before := readCounters()
		r, err := crawlPortal(ctx, w, tr, func(c *core.Config) {
			c.DataDir = dir
			c.WALSync = true
			c.MemtableBudget = memtableBudget
		}, during)
		if err != nil {
			return err
		}
		c := readCounters().since(before)
		if c["segment_freezes_total"] == 0 || c["segment_compaction_runs_total"] == 0 {
			res.gate(fmt.Errorf("crawl-serve shape: %d freezes and %d compactions; the memtable budget no longer forces both",
				c["segment_freezes_total"], c["segment_compaction_runs_total"]))
		}
		offset += int(load.Attempted)
		res.Attempted += 1 + load.Attempted
		res.Failed += load.Failed()
		if err := checkCrawl(w, r); err != nil {
			res.Failed++
			res.gate(err)
		}
		if tr != nil {
			crawlLayers(res, w, r, dir)
			servingLayers(res, &servingRun{fixed: rateResult{res: load}, c: c, handlerUS: p.handler.take()}, before)
		}
		reopened, coldS, heap, err := checkDurable(ctx, r, p, pool, gateIdx, dir)
		res.gate(err)
		r.heapPerDoc = heap
		if tr != nil {
			traced.add(r)
		} else {
			s.add(r)
			queries.merge(load)
			cold = append(cold, coldS)
			freezes += c["segment_freezes_total"]
			compactions += c["segment_compaction_runs_total"]
		}
		if last != nil {
			last.Close()
		}
		last = reopened
	}
	crawlServeMetrics(res, setup, n, &s, queries, cold, freezes, compactions)
	if ttr == nil {
		return nil
	}
	res.layer("trace.overhead_ratio", "ratio", median(s.pagesPerCPU)/median(traced.pagesPerCPU)-1, len(traced.pagesPerCPU))
	if last == nil {
		return fmt.Errorf("crawl-serve: no reopened store to probe")
	}
	if err := probeQueryPath(ctx, cfg, res, last, ttr, probeSearch|probeCoord); err != nil {
		return err
	}
	return finishTrace(cfg, res, ttr)
}

// checkDurable is the crawl-serve gate. It answers the sampled queries on
// the live store once the crawl is over, closes the engine, reopens the
// data directory the way portald boots, and times that cold start to the
// first /search answer. The reopened store must hold every document
// acknowledged durable before the close, and answer the sampled queries
// byte-identically. It returns the reopened store, still open, the cold
// start in seconds, and the live heap the reopened portal holds per
// document.
func checkDurable(ctx context.Context, r *crawlResult, p *portalServer, pool *queryPool, idx []int, dir string) (*store.Store, float64, float64, error) {
	// A fresh engine over the live store: the portal's own engine may still
	// be rebuilding a snapshot for a searcher's last request, and a query
	// that meets a rebuild in flight is served from the stale snapshot.
	st := r.eng.Store()
	liveEng := search.New(st)
	live := make([][]byte, len(idx))
	for j, i := range idx {
		live[j] = marshalHits(liveEng.Search(pool.queries[i]))
	}
	durable := st.DurableDocs()
	p.close()
	if err := r.eng.Close(); err != nil {
		return nil, 0, 0, fmt.Errorf("crawl-serve gate: close: %w", err)
	}
	heap0 := liveHeap()
	t0 := time.Now()
	st2, err := store.OpenTiered(dir, 0, store.TierOptions{MemtableBudget: memtableBudget, WALSync: true})
	if err != nil {
		return nil, 0, 0, fmt.Errorf("crawl-serve gate: reopen: %w", err)
	}
	p2 := startPortal(st2, nil)
	defer p2.close()
	h := newHTTPSearcher(p2.srv.URL, nil, 1, nil)
	code, _, err := h.get(ctx, pool.strs[0], spanRef{})
	cold := time.Since(t0).Seconds()
	h.close()
	heap := (liveHeap() - heap0) / float64(max(st2.NumDocs(), 1))
	if err != nil || code != 200 {
		return st2, cold, heap, fmt.Errorf("crawl-serve gate: first query after reopen: status %d: %v", code, err)
	}
	if got := int64(st2.NumDocs()); got < durable {
		return st2, cold, heap, fmt.Errorf("crawl-serve gate: reopened store holds %d docs, %d were acknowledged durable", got, durable)
	}
	for _, u := range r.urls {
		if !st2.Contains(u) {
			return st2, cold, heap, fmt.Errorf("crawl-serve gate: %s lost across reopen", u)
		}
	}
	for j, i := range idx {
		if got := marshalHits(p2.eng.Search(pool.queries[i])); !bytes.Equal(got, live[j]) {
			return st2, cold, heap, fmt.Errorf("crawl-serve gate: %q after reopen:\n got %s\nwant %s", pool.strs[i], got, live[j])
		}
	}
	return st2, cold, heap, nil
}

// crawlServeMetrics records crawl-serve's end-to-end metrics: the crawl's
// rate and quality, and the searchers' latency measured alongside it.
func crawlServeMetrics(res *result, setup float64, setupN int, s *crawlSeries, q loadResult, cold []float64, freezes, compactions int64) {
	n := len(s.pagesPerS)
	res.e2e("setup_s", "s", setup, setupN)
	res.e2e("throughput_per_s", "1/s", median(s.pagesPerS), n)
	res.e2e("throughput_per_cpu_s", "1/cpu-s", median(s.pagesPerCPU), n)
	res.e2e("portal_precision", "ratio", median(s.precision), n)
	res.e2e("author_recall", "ratio", median(s.recall), n)
	res.e2e("heap_bytes_per_doc", "B/doc", median(s.heapPerDoc), n)

	p50, _ := percentile(q.Latencies, 0.5)
	res.detail("crawl_pages_per_s", "pages/s", median(s.pagesPerS), n)
	res.detail("search_p50_ms", "ms", p50*1e3, len(q.Latencies))
	tailDetail(res, "search", q.Latencies)
	var worst float64
	for _, l := range q.Latencies {
		worst = max(worst, l)
	}
	res.detail("search_max_ms", "ms", worst*1e3, len(q.Latencies))
	res.detail("cold_start_s", "s", median(cold), len(cold))
	res.detail("failed_ratio", "ratio", ratio(float64(q.Failed()), float64(q.Attempted)), int(q.Attempted))
	res.detail("crawl_failed_ratio", "ratio", median(s.errRatio), n)
	res.detail("segment_freezes_per_crawl", "count", float64(freezes)/float64(max(n, 1)), n)
	res.detail("segment_compactions_per_crawl", "count", float64(compactions)/float64(max(n, 1)), n)
}
