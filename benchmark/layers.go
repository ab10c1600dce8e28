package main

import (
	"net/url"
	"os"
	"path/filepath"
	"time"

	"github.com/bingo-search/bingo/internal/classify"
	"github.com/bingo-search/bingo/internal/corpus"
	"github.com/bingo-search/bingo/internal/features"
	"github.com/bingo-search/bingo/internal/hits"
	"github.com/bingo-search/bingo/internal/htmldoc"
	"github.com/bingo-search/bingo/internal/metrics"
	"github.com/bingo-search/bingo/internal/store"
	"github.com/bingo-search/bingo/internal/textproc"
)

// counterSnap reads the program's own counters from metrics.Default(). A
// histogram contributes its count ("name#count") and sum ("name#sum").
type counterSnap map[string]int64

var counterNames = []string{
	"crawler_worker_busy_nanos_total", "crawler_worker_idle_nanos_total",
	"fetch_retries_total",
	"wal_bytes_total",
	"segment_freezes_total", "segment_compaction_runs_total",
	"segment_compaction_bytes_read_total", "segment_compaction_bytes_written_total",
	"search_snapshot_rebuilds_total", "search_stale_serves_total",
	"servecache_hits_total", "servecache_misses_total",
	"admit_shed_total", "rpc_client_hedges_total", "rpc_client_requests_total",
}

var histogramNames = []string{"wal_fsync_nanos", "search_snapshot_build_nanos", "admit_wait_nanos"}

func readCounters() counterSnap {
	reg := metrics.Default()
	s := counterSnap{}
	for _, n := range counterNames {
		s[n] = reg.Counter(n).Value()
	}
	for _, n := range histogramNames {
		h := reg.Histogram(n).Snapshot()
		s[n+"#count"], s[n+"#sum"] = h.Count, h.Sum
	}
	return s
}

// since is the change of every counter from s0 to s.
func (s counterSnap) since(s0 counterSnap) counterSnap {
	d := counterSnap{}
	for k, v := range s {
		d[k] = v - s0[k]
	}
	return d
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// crawlLayers records the crawl-path layer metrics of one traced crawl:
// phase times, crawler and frontier counts, the hooks' DNS, fetch and sink
// counts, the program's counters, and replays of the crawl's own pages and
// documents through the parse, analysis, classification, link-analysis and
// store-load layers. dir is the crawl's data directory ("" in memory).
func crawlLayers(res *result, w *corpus.World, r *crawlResult, dir string) {
	h := r.hooks
	tr := h.tr
	d := h.after.since(h.before)
	res.layer("core.bootstrap_s", "s", r.phases[0], 1)
	res.layer("core.learn_s", "s", r.phases[1], 1)
	res.layer("core.harvest_s", "s", r.phases[2], 1)
	s := tr.begin("core.retrain", spanRef{})
	t0 := time.Now()
	retrainErr := r.eng.Retrain()
	res.layer("core.retrain_s", "s", time.Since(t0).Seconds(), 1)
	tr.end(s, spanRef{})
	if retrainErr != nil {
		res.gate(retrainErr)
	}

	visited := r.learn.VisitedURLs + r.harvest.VisitedURLs
	stored := r.learn.StoredPages + r.harvest.StoredPages
	res.layer("crawler.visited", "count", float64(visited), 1)
	res.layer("crawler.stored", "count", float64(stored), 1)
	res.layer("crawler.useful_ratio", "ratio", ratio(float64(stored), float64(visited)), 1)
	busy, idle := float64(d["crawler_worker_busy_nanos_total"]), float64(d["crawler_worker_idle_nanos_total"])
	res.layer("crawler.worker_idle_ratio", "ratio", ratio(idle, busy+idle), 1)
	res.layer("crawler.unaccounted", "count", float64(unaccounted(r.learn)+unaccounted(r.harvest)), 1)

	c := &h.counts
	ds := r.eng.Resolver().Stats()
	res.layer("dns.lookups", "count", float64(c.dnsLookups.Load()), 1)
	res.layer("dns.lookup_s", "s", float64(c.dnsNanos.Load())/1e9, int(c.dnsLookups.Load()))
	res.layer("dns.cache_hit_ratio", "ratio", ratio(float64(ds.Hits), float64(ds.Hits+ds.Misses)), int(ds.Hits+ds.Misses))
	res.layer("fetch.requests", "count", float64(c.fetchRequests.Load()), 1)
	res.layer("fetch.transport_s", "s", float64(c.fetchNanos.Load())/1e9, int(c.fetchRequests.Load()))
	res.layer("fetch.bytes", "B", float64(c.fetchBytes.Load()), 1)
	res.layer("fetch.retries", "count", float64(d["fetch_retries_total"]), 1)

	rt := r.eng.Runtime()
	res.layer("frontier.pushed", "count", float64(rt.FrontierPushed), 1)
	res.layer("frontier.dropped", "count", float64(rt.FrontierDropped), 1)
	res.layer("frontier.peak_queued", "count", float64(h.peakQueued.Load()), h.queueSamples)

	replayPages(res, w, r, tr)
	replayLinks(res, r, tr)
	replayLoad(res, r, tr)

	res.layer("store.rows_written", "count", float64(c.sinkRows.Load()), 1)
	res.layer("store.wal_bytes", "B", float64(d["wal_bytes_total"]), 1)
	res.layer("store.wal_fsyncs", "count", float64(d["wal_fsync_nanos#count"]), 1)
	res.layer("segment.freezes", "count", float64(d["segment_freezes_total"]), 1)
	res.layer("segment.compactions", "count", float64(d["segment_compaction_runs_total"]), 1)
	res.layer("segment.compaction_bytes", "B", float64(d["segment_compaction_bytes_written_total"]), 1)
	// Bytes the store wrote: the WAL, every segment a freeze or compaction
	// wrote (those still on disk plus those compaction consumed), per byte
	// of document and link payload the crawler handed it.
	segBytes := float64(dirBytes(dir, ".bsg")) + float64(d["segment_compaction_bytes_read_total"])
	written := float64(d["wal_bytes_total"]) + segBytes
	res.layer("store.write_amp", "ratio", ratio(written, float64(c.sinkBytes.Load())), 1)
	res.layer("store.disk_bytes_per_doc", "B/doc", ratio(float64(dirBytes(dir, "")), float64(rt.StoredDocs)), 1)
}

// replayPages runs the crawl's own fetched pages through the parse,
// analysis and classification layers, one at a time, and records the
// time per page of each.
func replayPages(res *result, w *corpus.World, r *crawlResult, tr *tracer) {
	pipe := textproc.NewPipeline()
	clf := r.eng.Classifier()
	var parseNS, analyzeNS, classifyNS int64
	n := 0
	root := tr.begin("replay.pages", spanRef{})
	for _, u := range r.hooks.transport.fetched {
		p, ok := w.Pages[u]
		if !ok {
			continue
		}
		base, _ := url.Parse(u)
		resolve := func(_, href string) (string, bool) {
			ref, err := base.Parse(href)
			if err != nil {
				return "", false
			}
			return ref.String(), true
		}
		s := tr.begin("htmldoc.parse", root)
		t0 := time.Now()
		doc, err := htmldoc.Convert(p.ContentType, p.Body, resolve)
		t1 := time.Now()
		tr.end(s, root)
		if err != nil {
			continue
		}
		s = tr.begin("textproc.analyze", root)
		stems := pipe.StemsParts(doc.Title, doc.Text)
		t2 := time.Now()
		tr.end(s, root)
		s = tr.begin("classify.classify", root)
		clf.Classify(classify.Doc{ID: u, Input: features.DocInput{Stems: stems}})
		t3 := time.Now()
		tr.end(s, root)
		parseNS += t1.Sub(t0).Nanoseconds()
		analyzeNS += t2.Sub(t1).Nanoseconds()
		classifyNS += t3.Sub(t2).Nanoseconds()
		n++
	}
	tr.end(root, spanRef{})
	res.layer("htmldoc.parse_us_per_page", "us", ratio(float64(parseNS)/1e3, float64(n)), n)
	res.layer("textproc.analyze_us_per_page", "us", ratio(float64(analyzeNS)/1e3, float64(n)), n)
	res.layer("classify.classify_us_per_page", "us", ratio(float64(classifyNS)/1e3, float64(n)), n)
}

// replayLinks times one HITS run over the crawl's link graph.
func replayLinks(res *result, r *crawlResult, tr *tracer) {
	g := hits.NewGraph()
	r.eng.Store().VisitLinks(func(l store.Link) bool {
		g.AddEdge(l.From, hostOf(l.From), l.To, hostOf(l.To))
		return true
	})
	s := tr.begin("hits.run", spanRef{})
	t0 := time.Now()
	g.Run(hits.DefaultOptions())
	res.layer("hits.run_s", "s", time.Since(t0).Seconds(), g.NumEdges())
	tr.end(s, spanRef{})
}

// replayLoad bulk-loads the crawl's documents into a fresh in-memory store
// through a crawler-sized workspace.
func replayLoad(res *result, r *crawlResult, tr *tracer) {
	docs := r.eng.Store().All()
	fresh := store.NewSharded(r.eng.Store().NumShards())
	ws := fresh.NewWorkspace(32)
	s := tr.begin("store.load", spanRef{})
	t0 := time.Now()
	for _, d := range docs {
		ws.Add(d)
	}
	ws.Flush()
	res.layer("store.load_us_per_doc", "us", ratio(float64(time.Since(t0).Nanoseconds())/1e3, float64(len(docs))), len(docs))
	tr.end(s, spanRef{})
}

func hostOf(u string) string {
	if p, err := url.Parse(u); err == nil {
		return p.Host
	}
	return ""
}

// dirBytes sums the sizes of the regular files under dir whose names end
// in suffix ("" for all).
func dirBytes(dir, suffix string) int64 {
	if dir == "" {
		return 0
	}
	var n int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() && (suffix == "" || filepath.Ext(fi.Name()) == suffix) {
			n += fi.Size()
		}
		return nil
	})
	return n
}
