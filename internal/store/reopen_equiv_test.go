package store_test

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/bingo-search/bingo/internal/metrics"
	"github.com/bingo-search/bingo/internal/search"
	"github.com/bingo-search/bingo/internal/store"
	"github.com/bingo-search/bingo/internal/textproc"
)

var reopenVocab = []string{
	"database", "recovery", "transaction", "portal", "crawler",
	"classifier", "index", "query", "ranking", "segment", "logging", "commit",
}

// reopenDoc is document i of the reopen-equivalence corpus: body words
// from reopenVocab (stemmed into Terms, so queries find it), plus the
// "alpha"/"tN" terms requireStoresEqual compares postings on.
func reopenDoc(pipe *textproc.Pipeline, tenant string, i int, variant string) store.Document {
	u := reopenURL(i)
	var words []string
	for k := 0; k < 3+i%4; k++ {
		words = append(words, reopenVocab[(i*5+k*7+len(variant))%len(reopenVocab)])
	}
	text := strings.Join(words, " ") + variant
	terms := pipe.StemCounts(text)
	terms["alpha"] = 1 + i%3
	terms[fmt.Sprintf("t%d", i%40)] += 2
	return store.Document{
		Tenant: tenant, URL: u, FinalURL: u, Title: fmt.Sprintf("doc %d%s", i, variant),
		ContentType: "text/html", Topic: []string{"ROOT/db", "ROOT/ir"}[i%2],
		Confidence: float64(i%17) / 17, Depth: i % 3, Text: text, Terms: terms,
		CrawledAt: time.Unix(1700000000+int64(i), 0), IsTraining: i%9 == 0,
	}
}

func reopenURL(i int) string { return fmt.Sprintf("http://h%d.example/r/%d", i%7, i) }

// TestReopenMatchesLiveForEveryMutator drives every public mutator on hot
// and cold (frozen) rows of a tiered store, then crash-reopens the data
// dir (no Close) and requires the reopened store to agree with the live
// one on every read API and to rank every query Float64bits-identically.
// Under WALSync each mutator must fsync its record before returning: one
// wal_fsync_nanos observation per call.
func TestReopenMatchesLiveForEveryMutator(t *testing.T) {
	pipe := textproc.NewPipeline()
	fsyncs := metrics.Default().Histogram("wal_fsync_nanos")
	for _, p := range []int{1, 4} {
		dir := t.TempDir()
		opt := store.TierOptions{MemtableBudget: 1 << 40, DisableCompaction: true, WALSync: true}
		live, err := store.OpenTiered(dir, p, opt)
		if err != nil {
			t.Fatal(err)
		}
		// Rows 0-59 (and two named-tenant rows) are frozen into segments;
		// rows 60-89 stay hot in the WAL.
		fill := func(lo, hi int) {
			w := live.NewWorkspace(16)
			for i := lo; i < hi; i++ {
				w.Add(reopenDoc(pipe, "", i, ""))
				w.AddLink(store.Link{From: reopenURL(i), To: reopenURL((i*3 + 1) % hi), Anchor: "a"})
				if i%10 == 0 {
					w.Add(reopenDoc(pipe, "beta", i, " beta"))
				}
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		fill(0, 60)
		for i := 0; i < live.NumShards(); i++ {
			if err := live.FreezeShard(i); err != nil {
				t.Fatal(err)
			}
		}
		fill(60, 90)

		mustOK := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		mustTrue := func(ok bool) {
			t.Helper()
			if !ok {
				t.Fatal("mutator found no document")
			}
		}
		steps := []struct {
			name string
			run  func()
		}{
			{"Insert new", func() { live.Insert(reopenDoc(pipe, "", 100, "")) }},
			{"Insert replaces hot", func() { live.Insert(reopenDoc(pipe, "", 70, " recrawled")) }},
			{"Insert replaces cold", func() { live.Insert(reopenDoc(pipe, "", 10, " recrawled")) }},
			{"Insert named tenant", func() { live.Insert(reopenDoc(pipe, "beta", 75, " beta")) }},
			{"AddLink to cold", func() { live.AddLink(store.Link{From: reopenURL(100), To: reopenURL(11), Anchor: "x"}) }},
			{"AddLink to hot", func() { live.AddLink(store.Link{From: reopenURL(12), To: reopenURL(71), Anchor: "y"}) }},
			{"AddRedirect", func() { live.AddRedirect(store.Redirect{From: "http://old.example/", To: reopenURL(13)}) }},
			{"Delete cold", func() { mustTrue(live.Delete(reopenURL(14))) }},
			{"Delete hot", func() { mustTrue(live.Delete(reopenURL(72))) }},
			{"DeleteDoc named cold", func() { mustTrue(live.DeleteDoc("beta", reopenURL(20))) }},
			{"SetTopic cold", func() { mustOK(live.SetTopic(reopenURL(15), "ROOT/os", 0.91)) }},
			{"SetTopic hot", func() { mustOK(live.SetTopic(reopenURL(73), "ROOT/os", 0.12)) }},
			{"SetTopicDoc named cold", func() { mustOK(live.SetTopicDoc("beta", reopenURL(30), "ROOT/os", 0.5)) }},
			{"SetTraining cold", func() { mustOK(live.SetTraining(reopenURL(16), true)) }},
			{"SetTraining hot", func() { mustOK(live.SetTraining(reopenURL(81), false)) }},
			{"SetTrainingDoc named hot", func() { mustOK(live.SetTrainingDoc("beta", reopenURL(80), true)) }},
			{"Workspace flush", func() {
				w := live.NewWorkspace(64)
				w.Add(reopenDoc(pipe, "", 101, ""))
				w.Add(reopenDoc(pipe, "", 17, " recrawled")) // cold
				w.Add(reopenDoc(pipe, "", 74, " recrawled")) // hot
				w.AddLink(store.Link{From: reopenURL(101), To: reopenURL(17), Anchor: "z"})
				w.AddRedirect(store.Redirect{From: "http://older.example/", To: reopenURL(101)})
				mustOK(w.Flush())
			}},
		}
		for _, st := range steps {
			before := fsyncs.Snapshot().Count
			st.run()
			if n := fsyncs.Snapshot().Count - before; n != 1 {
				t.Fatalf("P=%d %s: %d WAL fsyncs, want 1 (the record must be durable when the call returns)", p, st.name, n)
			}
		}

		re, err := store.OpenTiered(dir, p, opt) // no Close: a crash
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("P=%d reopen", p)
		store.RequireStoresEqual(t, label, re, live)

		liveEng, reEng := search.New(live), search.New(re)
		weights := []search.Weights{search.DefaultWeights(), {Cosine: 1, Confidence: 0.5, Authority: 2}}
		hits := 0
		for _, word := range reopenVocab {
			for _, q := range []search.Query{
				{Text: word, Limit: 50},
				{Text: word + " recovery", Limit: 50, Weights: weights[1]},
				{Text: word, Topic: "ROOT/db", Limit: 50, Weights: weights[1]},
				{Text: word, Tenant: "beta", Limit: 50, Weights: weights[1]},
			} {
				want, got := liveEng.Search(q), reEng.Search(q)
				hits += len(want)
				requireSameHits(t, fmt.Sprintf("%s %+v", label, q), want, got)
			}
		}
		if hits == 0 {
			t.Fatalf("%s: no query matched anything — weak test", label)
		}
		re.Close()
		live.Close()
	}
}

// requireSameHits requires the same URLs in the same order with
// Float64bits-identical scores.
func requireSameHits(t *testing.T, label string, want, got []search.Hit) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d hits, live store has %d", label, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Doc.URL != g.Doc.URL || w.Doc.Tenant != g.Doc.Tenant {
			t.Fatalf("%s: hit %d is %s/%q, live %s/%q", label, i, g.Doc.Tenant, g.Doc.URL, w.Doc.Tenant, w.Doc.URL)
		}
		for _, c := range []struct {
			name string
			w, g float64
		}{{"score", w.Score, g.Score}, {"cosine", w.Cosine, g.Cosine}, {"confidence", w.Confidence, g.Confidence}, {"authority", w.Authority, g.Authority}} {
			if math.Float64bits(c.w) != math.Float64bits(c.g) {
				t.Fatalf("%s: hit %d (%s) %s %v, live %v", label, i, w.Doc.URL, c.name, c.g, c.w)
			}
		}
	}
}
