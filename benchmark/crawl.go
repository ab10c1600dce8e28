package main

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/bingo-search/bingo/internal/core"
	"github.com/bingo-search/bingo/internal/corpus"
	"github.com/bingo-search/bingo/internal/crawler"
	"github.com/bingo-search/bingo/internal/dns"
	"github.com/bingo-search/bingo/internal/experiments"
	"github.com/bingo-search/bingo/internal/store"
)

// portalTopic is the ground-truth topic index of the "databases" portal
// every workload crawls for (the world's primary topic).
const portalTopic = 0

// learnBudget is core.Config's default learning-phase page budget.
const learnBudget = 500

// topAuthors is the ground-truth cut of the paper's Tables 2-3.
const topAuthors = 1000

// worldScale sizes every workload's worlds: the default world with twice
// the authors and hosts, about 15k pages, of which a crawl stores about 7k.
const worldScale = 2

// newWorld generates a run's j-th world. A run spreads its crawls over
// several worlds so that one world's link structure does not set the run's
// quality numbers; runs of different seeds never share a world.
func newWorld(seed int64, j int) *corpus.World {
	cfg := corpus.DefaultConfig()
	cfg.Seed = seed*16 + int64(j)
	cfg.AuthorsPrimary *= worldScale
	cfg.HostsPerTopic *= worldScale
	cfg.GeneralHosts *= worldScale
	return corpus.Generate(cfg)
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// liveHeap is the live heap after a forced collection.
func liveHeap() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// crawlResult is one bootstrap -> learn -> harvest crawl.
type crawlResult struct {
	eng            *core.Engine
	wall, cpu      float64 // seconds over the three phases
	phases         [3]float64
	learn, harvest crawler.Stats
	stored         int
	urls           []string // every stored URL
	precision      float64
	recall         float64
	heapPerDoc     float64
	hooks          *crawlHooks // nil when untraced
}

// crawlHooks are the traced run's wrappers around the engine's hooks.
type crawlHooks struct {
	tr            *tracer
	counts        hookCounts
	transport     *tracedTransport
	before, after counterSnap
	// peakQueued is the frontier's high-water mark, sampled every
	// queueSampleEvery while the crawl runs.
	peakQueued   atomic.Int64
	queueSamples int
}

const queueSampleEvery = 5 * time.Millisecond

// sampleQueue polls the frontier length until stop is closed, then closes
// done.
func (h *crawlHooks) sampleQueue(eng *core.Engine, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(queueSampleEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			h.queueSamples++
			if q := int64(eng.Runtime().FrontierQueued); q > h.peakQueued.Load() {
				h.peakQueued.Store(q)
			}
		}
	}
}

// crawlPortal builds an engine for the databases portal over w with the
// paper's default configuration (15 workers, default learning budget) and
// a harvest budget large enough that the harvest runs dry, applies mut, and
// runs bootstrap, learn and harvest. during, when set, is started once the
// engine exists and its stop function is called after the harvest (the
// searchers of crawl-serve). With tr set, the engine's transport,
// DNS servers and sink are wrapped and every phase is a span.
func crawlPortal(ctx context.Context, w *corpus.World, tr *tracer, mut func(*core.Config), during func(*core.Engine) func()) (*crawlResult, error) {
	heap0 := liveHeap()
	var hooks *crawlHooks
	eng, err := experiments.NewPortalEngine(w, learnBudget, 1<<40, func(c *core.Config) {
		if mut != nil {
			mut(c)
		}
		if tr != nil {
			hooks = &crawlHooks{tr: tr}
			hooks.transport = &tracedTransport{next: c.Transport, tr: tr, c: &hooks.counts}
			c.Transport = hooks.transport
			c.DNSMiddleware = func(_ int, s dns.Server) dns.Server {
				return tracedDNS{next: s, tr: tr, c: &hooks.counts}
			}
			c.Sink = countingSink{c: &hooks.counts}
		}
	})
	if err != nil {
		return nil, err
	}
	r := &crawlResult{eng: eng, hooks: hooks}
	if hooks != nil {
		hooks.before = readCounters()
		stop, done := make(chan struct{}), make(chan struct{})
		go hooks.sampleQueue(eng, stop, done)
		defer func() {
			close(stop)
			<-done
		}()
	}
	stopDuring := func() {}
	if during != nil {
		stopDuring = during(eng)
	}
	root := tr.begin("crawl", spanRef{})
	cpu0, t0 := cpuSeconds(), time.Now()
	phase := func(i int, name string, fn func() error) error {
		s := tr.begin(name, root)
		if tr != nil {
			tr.phase.Store(&s)
		}
		start := time.Now()
		err := fn()
		r.phases[i] = time.Since(start).Seconds()
		tr.end(s, root)
		return err
	}
	err = phase(0, "core.bootstrap", func() error { return eng.Bootstrap(ctx) })
	if err == nil {
		err = phase(1, "core.learn", func() (err error) { r.learn, err = eng.Learn(ctx); return err })
	}
	if err == nil {
		err = phase(2, "core.harvest", func() (err error) { r.harvest, err = eng.Harvest(ctx); return err })
	}
	r.wall, r.cpu = time.Since(t0).Seconds(), cpuSeconds()-cpu0
	tr.end(root, spanRef{})
	stopDuring()
	if hooks != nil {
		hooks.after = readCounters()
	}
	if err != nil {
		eng.Close()
		return nil, fmt.Errorf("crawl: %w", err)
	}
	eng.Store().VisitDocs(func(d store.Document) bool {
		r.urls = append(r.urls, d.URL)
		return true
	})
	r.stored = len(r.urls)
	onTopic := 0
	for _, u := range r.urls {
		if topic, ok := w.PageTopic(u); ok && topic == portalTopic {
			onTopic++
		}
	}
	if r.stored > 0 {
		r.precision = float64(onTopic) / float64(r.stored)
		r.heapPerDoc = (liveHeap() - heap0) / float64(r.stored)
	}
	truth := min(topAuthors, len(w.Authors))
	r.recall = float64(w.Evaluate(r.urls, nil, topAuthors).FoundTop) / float64(truth)
	return r, nil
}

// checkCrawl is the crawl's correctness gate: every stored URL is a page of
// the world, the harvest ran dry, and every visit in each phase ended
// exactly one way (stored, duplicate or error) - the chaos suite's
// accounting invariant. A phase that spends its page budget cancels the
// pages its workers hold at that moment without booking them (a known
// defect of the crawler, see README.md); those at most one-per-worker
// visits are allowed on such a phase only, and reported.
func checkCrawl(w *corpus.World, r *crawlResult) error {
	var strays []string
	for _, u := range r.urls {
		if _, ok := w.PageTopic(u); !ok && len(strays) < 5 {
			strays = append(strays, u)
		}
	}
	if len(strays) > 0 {
		return fmt.Errorf("crawl stored URLs that are not world pages: %v", strays)
	}
	if q := r.eng.Runtime().FrontierQueued; q != 0 {
		return fmt.Errorf("harvest stopped with %d URLs still queued", q)
	}
	const workers = 15 // core.Config default
	for _, ph := range []struct {
		name   string
		s      crawler.Stats
		budget int64
	}{{"learn", r.learn, learnBudget}, {"harvest", r.harvest, 1 << 40}} {
		u := unaccounted(ph.s)
		cutOff := ph.s.VisitedURLs >= ph.budget
		if u < 0 || (!cutOff && u != 0) || u > workers {
			return fmt.Errorf("%s accounting broken: stored %d + duplicates %d + errors %d != visited %d (budget spent: %v)",
				ph.name, ph.s.StoredPages, ph.s.Duplicates, ph.s.Errors, ph.s.VisitedURLs, cutOff)
		}
	}
	return nil
}

// unaccounted is how many of a phase's visits ended none of the three ways.
func unaccounted(s crawler.Stats) int64 {
	return s.VisitedURLs - (s.StoredPages + s.Duplicates + s.Errors)
}
