package main

import (
	"context"
	"path/filepath"
	"time"

	"github.com/bingo-search/bingo/internal/corpus"
)

// crawlWorlds is how many worlds a crawl run alternates its crawls over.
const crawlWorlds = 2

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 3

// minCrawls is the fewest crawls a crawl run measures, however short
// --seconds is.
const minCrawls = 2 * crawlWorlds

// measureSetup runs setup setupReps times and returns the median seconds.
// fn receives the repetition index; the last repetition's state is the one
// the run keeps.
func measureSetup(fn func(i int) error) (float64, int, error) {
	var secs []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs), len(secs), nil
}

// crawlSeries collects one number per crawl.
type crawlSeries struct {
	pagesPerS, pagesPerCPU, wallMS, precision, recall, heapPerDoc, errRatio []float64
}

func (s *crawlSeries) add(r *crawlResult) {
	s.pagesPerS = append(s.pagesPerS, float64(r.stored)/r.wall)
	s.pagesPerCPU = append(s.pagesPerCPU, float64(r.stored)/r.cpu)
	s.wallMS = append(s.wallMS, r.wall*1e3)
	s.precision = append(s.precision, r.precision)
	s.recall = append(s.recall, r.recall)
	s.heapPerDoc = append(s.heapPerDoc, r.heapPerDoc)
	visited := r.learn.VisitedURLs + r.harvest.VisitedURLs
	s.errRatio = append(s.errRatio, ratio(float64(r.learn.Errors+r.harvest.Errors), float64(visited)))
}

// crawl: Engine phases bootstrap -> learn -> harvest, back to back on
// fresh engines over one world, in memory, no queries. Nearly all work is
// in the crawl pipeline, so a crawl-pipeline change shows here.
func runCrawl(ctx context.Context, cfg runCfg, res *result) error {
	worlds := make([]*corpus.World, crawlWorlds)
	setup, n, err := measureSetup(func(int) error {
		for j := range worlds {
			worlds[j] = newWorld(cfg.seed, j)
		}
		return nil
	})
	if err != nil {
		return err
	}
	var s, traced crawlSeries
	var last *crawlResult
	var lastWorld *corpus.World
	deadline := time.Now().Add(cfg.seconds)
	for i := 0; i < minCrawls || time.Now().Before(deadline); i++ {
		// The traced run alternates untraced and traced crawls, so the
		// tracing overhead is measured under the same conditions.
		var tr *tracer
		if cfg.trace && i%2 == 1 {
			tr = newTracer()
		}
		w := worlds[i%crawlWorlds]
		r, err := crawlPortal(ctx, w, tr, nil, nil)
		if err != nil {
			return err
		}
		res.Attempted++
		if err := checkCrawl(w, r); err != nil {
			res.Failed++
			res.gate(err)
		}
		if tr == nil {
			s.add(r)
			r.eng.Close()
			continue
		}
		traced.add(r)
		if last != nil {
			last.eng.Close()
		}
		last, lastWorld = r, w
	}
	crawlMetrics(res, setup, n, &s)
	if last != nil {
		defer last.eng.Close()
		crawlLayers(res, lastWorld, last, "")
		res.layer("trace.overhead_ratio", "ratio", median(s.pagesPerCPU)/median(traced.pagesPerCPU)-1, len(traced.pagesPerCPU))
		if err := probeQueryPath(ctx, cfg, res, last.eng.Store(), last.hooks.tr, probeAll); err != nil {
			return err
		}
		return finishTrace(cfg, res, last.hooks.tr)
	}
	return nil
}

// crawlMetrics records the crawl family's end-to-end metrics.
func crawlMetrics(res *result, setup float64, setupN int, s *crawlSeries) {
	n := len(s.pagesPerS)
	res.e2e("setup_s", "s", setup, setupN)
	res.e2e("throughput_per_s", "1/s", median(s.pagesPerS), n)
	res.e2e("throughput_per_cpu_s", "1/cpu-s", median(s.pagesPerCPU), n)
	res.e2e("portal_precision", "ratio", median(s.precision), n)
	res.e2e("author_recall", "ratio", median(s.recall), n)
	res.e2e("heap_bytes_per_doc", "B/doc", median(s.heapPerDoc), n)

	res.detail("crawl_pages_per_s", "pages/s", median(s.pagesPerS), n)
	res.detail("crawl_pages_per_cpu_s", "pages/CPU-s", median(s.pagesPerCPU), n)
	res.detail("crawl_wall_ms", "ms", median(s.wallMS), n)
	res.detail("failed_ratio", "ratio", median(s.errRatio), n)
}

// finishTrace writes the run's spans and adds the per-layer self times.
func finishTrace(cfg runCfg, res *result, tr *tracer) error {
	path := filepath.Join(filepath.Dir(cfg.work), "traces", res.Workload+"-seed"+itoa(cfg.seed)+".json")
	if err := mkdirFor(path); err != nil {
		return err
	}
	layers, err := tr.writeTrace(path)
	res.LayerTimes = layers
	if err == nil {
		res.Notes = append(res.Notes, "trace written to "+path)
	}
	sortedMetrics(res.Layers)
	return err
}
