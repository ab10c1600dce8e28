package core

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/bingo-search/bingo/internal/corpus"
	"github.com/bingo-search/bingo/internal/frontier"
	"github.com/bingo-search/bingo/internal/store"
)

// newDataDirEngine is newTestEngine with the crawl database in a fresh
// data dir; the engine is closed when the test ends.
func newDataDirEngine(t *testing.T, mut func(*Config)) (*Engine, *corpus.World, string) {
	t.Helper()
	dir := t.TempDir()
	e, w := newTestEngine(t, func(c *Config) {
		c.DataDir = dir
		if mut != nil {
			mut(c)
		}
	})
	t.Cleanup(func() { e.Close() })
	return e, w, dir
}

// resumeConfig is the config a resumed session is loaded with: the same
// topic tree and world, and the crawl's data dir ("" for an in-memory
// engine).
func resumeConfig(w *corpus.World, dataDir string) Config {
	table := map[string]string{}
	for h, rec := range w.DNSTable() {
		table[h] = rec.IP
	}
	return Config{
		Topics:     []TopicSpec{{Path: []string{"databases"}, Seeds: w.SeedURLs()}},
		OthersURLs: w.GeneralPageURLs(12),
		Transport:  w.RoundTripper(),
		DNSServers: []DNSServerSpec{{Table: table}},
		DataDir:    dataDir,
	}
}

// loadSession is LoadSession that fails the test on error and closes the
// engine when the test ends.
func loadSession(t *testing.T, cfg Config, path string) *Engine {
	t.Helper()
	e, err := LoadSession(cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// TestSaveLoadSessionAndResume: save, Close, LoadSession, HarvestN on a
// data dir. The resumed engine writes through the same tiered store, adds
// documents without refetching any stored URL, and everything it stored
// survives Close and a reopen of the data dir.
func TestSaveLoadSessionAndResume(t *testing.T) {
	e, world, dir := newDataDirEngine(t, func(c *Config) {
		c.LearnBudget = 80
		c.HarvestBudget = 80
	})
	ctx := context.Background()
	if _, _, err := e.Run(ctx); err != nil {
		t.Fatal(err)
	}
	docsBefore := e.Store().NumDocs()
	trainBefore := e.TrainingSize()
	retrainsBefore := e.Retrains()
	crawledAt := map[string]time.Time{}
	e.Store().VisitDocs(func(d store.Document) bool {
		crawledAt[d.URL] = d.CrawledAt
		return true
	})

	path := filepath.Join(t.TempDir(), "session.bngs")
	if err := e.SaveSession(path); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Rebuild the engine config against the same world (a fresh transport
	// is fine — the world is deterministic).
	e2 := loadSession(t, resumeConfig(world, dir), path)
	if !e2.Store().Tiered() {
		t.Fatal("resumed engine is not writing through the data dir")
	}
	if e2.Store().NumDocs() != docsBefore {
		t.Errorf("store docs = %d, want %d", e2.Store().NumDocs(), docsBefore)
	}
	if e2.TrainingSize() != trainBefore {
		t.Errorf("training size = %d, want %d", e2.TrainingSize(), trainBefore)
	}
	if e2.Retrains() != retrainsBefore+1 { // history + the reload retrain
		t.Errorf("retrains = %d, want %d", e2.Retrains(), retrainsBefore+1)
	}
	if e2.Classifier() == nil {
		t.Fatal("no classifier after load")
	}

	// Resume: extra harvest budget grows the store without refetching.
	stats, err := e2.HarvestN(ctx, 200)
	if err != nil {
		t.Fatal(err)
	}
	docsAfter := e2.Store().NumDocs()
	if docsAfter <= docsBefore {
		t.Errorf("resume added no documents: %d -> %d (stats %+v)", docsBefore, docsAfter, stats)
	}
	for u, at := range crawledAt {
		d, err := e2.Store().GetByURL(u)
		if err != nil {
			t.Fatalf("stored URL %s lost on resume: %v", u, err)
		}
		if !d.CrawledAt.Equal(at) {
			t.Errorf("stored URL %s refetched on resume (crawled %v, then %v)", u, at, d.CrawledAt)
		}
	}
	if !e2.Store().Contains(world.SeedURLs()[0]) {
		t.Error("seed lost on reload")
	}

	// The resumed crawl is durable: Close, reopen the data dir, and every
	// document it stored is still there.
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := store.OpenTiered(dir, 0, store.TierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumDocs() != docsAfter {
		t.Errorf("reopened data dir holds %d docs, the resumed crawl stored %d", re.NumDocs(), docsAfter)
	}
}

func TestLoadSessionErrors(t *testing.T) {
	e, w, dataDir := newDataDirEngine(t, nil)
	if err := e.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "s.bngs")
	if err := e.SaveSession(path); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	base := resumeConfig(w, dataDir)

	// missing file
	if _, err := LoadSession(base, filepath.Join(dir, "nope.bngs")); err == nil {
		t.Error("missing file loaded")
	}
	// mismatched topic tree
	bad := base
	bad.Topics = []TopicSpec{{Path: []string{"somethingelse"}, Seeds: w.SeedURLs()}}
	if _, err := LoadSession(bad, path); err == nil {
		t.Error("mismatched tree accepted")
	}
	// corrupt file
	corrupt := filepath.Join(dir, "corrupt.bngs")
	if err := os.WriteFile(corrupt, []byte("not a session"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSession(base, corrupt); err == nil {
		t.Error("corrupt file loaded")
	}
	// a session whose documents live in a data dir, loaded without one
	if _, err := LoadSession(resumeConfig(w, ""), path); err == nil || !strings.Contains(err.Error(), "data dir") {
		t.Errorf("session loaded without its data dir: err = %v", err)
	}
}

func TestSaveSessionUnwritablePath(t *testing.T) {
	e, _, _ := newDataDirEngine(t, nil)
	if err := e.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := e.SaveSession("/nonexistent-dir/deep/session.bngs"); err == nil {
		t.Error("unwritable path accepted")
	}
}

// TestSaveSessionNeedsDataDir: an in-memory engine has nowhere durable to
// keep a session's documents, so SaveSession refuses and writes nothing.
func TestSaveSessionNeedsDataDir(t *testing.T) {
	e, _ := newTestEngine(t, nil)
	if err := e.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "s.bngs")
	err := e.SaveSession(path)
	if err == nil || !strings.Contains(err.Error(), "data dir") {
		t.Fatalf("SaveSession without a data dir: err = %v", err)
	}
	if _, serr := os.Stat(path); !os.IsNotExist(serr) {
		t.Errorf("SaveSession wrote %s despite failing", path)
	}
}

func TestLoadSessionVersionMismatch(t *testing.T) {
	e, w, dataDir := newDataDirEngine(t, nil)
	if err := e.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "s.bngs")
	if err := e.SaveSession(path); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	cfg := resumeConfig(w, dataDir)
	// valid load works; then a truncated file must fail cleanly
	e2, err := LoadSession(cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	short := filepath.Join(t.TempDir(), "short.bngs")
	if err := os.WriteFile(short, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSession(cfg, short); err == nil {
		t.Error("truncated session loaded")
	}
}

func TestClusterTopicEmptyClass(t *testing.T) {
	e, _ := newTestEngine(t, nil)
	res, k, docs := e.ClusterTopic("ROOT/nonexistent", 2, 4)
	if len(docs) != 0 || k != 0 && len(res.Assign) != 0 {
		t.Errorf("empty class clustering: k=%d docs=%d", k, len(docs))
	}
}

// TestSessionPersistsFrontier checks that queued frontier work survives a
// save/load cycle: a resumed crawl starts from the saved queue, not empty.
func TestSessionPersistsFrontier(t *testing.T) {
	e, w, dataDir := newDataDirEngine(t, nil)
	if err := e.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	e.def.frontier.Push(frontier.Item{URL: "http://pending.example/a", Topic: "ROOT/databases", Priority: 1e9})
	e.def.frontier.Push(frontier.Item{URL: "http://pending.example/b", Topic: "ROOT/databases", Priority: 0.4})
	e.def.frontier.Requeue(frontier.Item{URL: "http://cooling.example/", Topic: "ROOT/databases", Priority: 0.7}, time.Hour)
	queuedBefore := e.def.frontier.Stats()

	path := filepath.Join(t.TempDir(), "s.bngs")
	if err := e.SaveSession(path); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := loadSession(t, resumeConfig(w, dataDir), path)
	if after := e2.def.frontier.Stats(); after.Queued != queuedBefore.Queued {
		t.Errorf("restored queued = %d, want %d", after.Queued, queuedBefore.Queued)
	}
	requireSavedFrontier(t, e2)
}

// requireSavedFrontier checks the frontier that TestSessionPersistsFrontier
// saves (and testdata/session-v2.bngs holds) came back: one cooling
// requeue, the dedup set, and the best pending link first in line.
func requireSavedFrontier(t *testing.T, e *Engine) {
	t.Helper()
	if got := e.def.frontier.Stats().Delayed; got != 1 {
		t.Errorf("restored delayed = %d, want 1", got)
	}
	// Dedup restored with the queue: a duplicate push is dropped.
	if e.def.frontier.Push(frontier.Item{URL: "http://pending.example/a", Topic: "ROOT/databases", Priority: 1e9}) {
		t.Error("re-push of saved frontier URL succeeded after restore")
	}
	// The best pending link pops first.
	it, ok := e.def.frontier.Pop()
	if !ok {
		t.Fatal("restored frontier empty")
	}
	if it.URL != "http://pending.example/a" {
		t.Errorf("first pop = %q, want the highest-priority saved link", it.URL)
	}
}

// bootstrapDocs is how many documents a bootstrap of newTestEngine stores
// — what the legacy session fixtures, saved right after one, hold.
func bootstrapDocs(t *testing.T) int {
	t.Helper()
	e, _ := newTestEngine(t, nil)
	defer e.Close()
	if err := e.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	return e.Store().NumDocs()
}

// TestSessionLegacyHeaderless checks that a version-1 session — written
// before the magic header existed, with no frontier state and the crawl
// database embedded after the state — still loads, into memory. The
// fixture was saved by an earlier release right after a bootstrap.
func TestSessionLegacyHeaderless(t *testing.T) {
	_, w := newTestEngine(t, nil)
	path := filepath.Join("testdata", "session-v1.bngs")
	e2, err := LoadSession(resumeConfig(w, ""), path)
	if err != nil {
		t.Fatalf("legacy headerless session rejected: %v", err)
	}
	defer e2.Close()
	if want := bootstrapDocs(t); e2.Store().NumDocs() != want {
		t.Errorf("legacy load docs = %d, want %d", e2.Store().NumDocs(), want)
	}
	if got := e2.def.frontier.Stats().Queued; got != 0 {
		t.Errorf("legacy load restored %d frontier items, want 0", got)
	}
}

// TestSessionLegacyV2 checks that a version-2 session — the header, the
// state with its frontier, then the embedded crawl database — loads into
// memory, and that loading it with a data dir set is refused instead of
// silently leaving the data dir unused. The fixture was saved by an
// earlier release after a bootstrap plus TestSessionPersistsFrontier's
// pushes.
func TestSessionLegacyV2(t *testing.T) {
	_, w := newTestEngine(t, nil)
	path := filepath.Join("testdata", "session-v2.bngs")
	if e, err := LoadSession(resumeConfig(w, t.TempDir()), path); err == nil {
		e.Close()
		t.Fatal("legacy session loaded with a data dir set")
	}
	e2 := loadSession(t, resumeConfig(w, ""), path)
	if e2.Store().Tiered() {
		t.Error("legacy session loaded into a tiered store")
	}
	if want := bootstrapDocs(t); e2.Store().NumDocs() != want {
		t.Errorf("legacy load docs = %d, want %d", e2.Store().NumDocs(), want)
	}
	requireSavedFrontier(t, e2)
}

// TestSessionUnknownFormatVersion checks the header gives a clear error for
// a future format instead of a gob decode failure.
func TestSessionUnknownFormatVersion(t *testing.T) {
	e, w, dataDir := newDataDirEngine(t, nil)
	if err := e.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "s.bngs")
	if err := e.SaveSession(path); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[4] = 99 // bump the format version byte
	future := filepath.Join(t.TempDir(), "future.bngs")
	if err := os.WriteFile(future, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadSession(resumeConfig(w, dataDir), future)
	if err == nil {
		t.Fatal("future format version accepted")
	}
	if !strings.Contains(err.Error(), "unsupported format version 99") {
		t.Errorf("error %q does not name the unsupported version", err)
	}
}
