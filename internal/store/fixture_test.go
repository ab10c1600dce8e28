package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/bingo-search/bingo/internal/segment"
)

// fixtureDoc is document i of the data-dir fixture's script.
func fixtureDoc(tenant string, i int, variant string) Document {
	u := fmt.Sprintf("http://h%d.example/fixture/p%d", i%5, i)
	return Document{
		Tenant:      tenant,
		URL:         u,
		FinalURL:    u + "#final",
		Title:       fmt.Sprintf("fixture doc %d%s", i, variant),
		ContentType: "text/html",
		Topic:       []string{"db", "ir", "web"}[i%3],
		Confidence:  float64(i%10) / 10,
		Depth:       i % 4,
		Text:        fmt.Sprintf("fixture body %d%s alpha", i, variant),
		Terms: map[string]int{
			"alpha":                       1 + i%3,
			fmt.Sprintf("t%d", i%40):      2,
			fmt.Sprintf("t%d", (i*7)%40):  1 + i%2,
			fmt.Sprintf("t%d", (i+13)%40): 3,
		},
		CrawledAt:  time.Unix(1700000000+int64(i), int64(i)*1000),
		IsTraining: i%6 == 0,
	}
}

// writeFixtureScript is the write sequence behind testdata/datadir: a
// workspace flush and per-row writes that are frozen into one segment per
// shard, then a WAL tail holding every record kind — docs, links and
// redirects from both a workspace flush and the per-row mutators, and
// delete, set-topic and set-training records against cold (frozen) and
// hot rows of the default and a named tenant. On an in-memory store the
// freezes are no-ops, which makes the same script the reference the
// fixture must reopen into.
func writeFixtureScript(t testing.TB, s *Store) {
	t.Helper()
	link := func(i, j int, anchor string) Link {
		return Link{From: fixtureDoc("", i, "").URL, To: fixtureDoc("", j, "").URL, Anchor: anchor}
	}
	redirect := func(i int) Redirect {
		return Redirect{From: fmt.Sprintf("http://old%d.example/", i), To: fixtureDoc("", i, "").URL}
	}

	// Frozen wave: documents 0-19 and two named-tenant rows through a
	// workspace, document 20 and a link and redirect row by row.
	w := s.NewWorkspace(1000)
	for i := 0; i < 20; i++ {
		w.Add(fixtureDoc("", i, ""))
		w.AddLink(link(i, (i+3)%21, fmt.Sprintf("a%d", i)))
		if i%5 == 0 {
			w.AddRedirect(redirect(i))
		}
	}
	w.Add(fixtureDoc("beta", 1, " beta"))
	w.Add(fixtureDoc("beta", 2, " beta"))
	if err := w.Flush(); err != nil {
		t.Fatalf("fixture: flush: %v", err)
	}
	s.Insert(fixtureDoc("", 20, ""))
	s.AddLink(link(20, 0, "row"))
	s.AddRedirect(redirect(20))
	for i := 0; i < s.NumShards(); i++ {
		if err := s.FreezeShard(i); err != nil {
			t.Fatalf("fixture: freeze shard %d: %v", i, err)
		}
	}

	// WAL tail, workspace half: new documents 21-27, a recrawl of cold
	// document 2, links and redirects.
	w = s.NewWorkspace(1000)
	for i := 21; i < 28; i++ {
		w.Add(fixtureDoc("", i, ""))
		w.AddLink(link(i, i-20, fmt.Sprintf("b%d", i)))
	}
	w.Add(fixtureDoc("", 2, " recrawled"))
	w.AddRedirect(redirect(21))
	if err := w.Flush(); err != nil {
		t.Fatalf("fixture: flush: %v", err)
	}

	// WAL tail, per-row half.
	s.Insert(fixtureDoc("", 28, ""))
	s.Insert(fixtureDoc("", 22, " recrawled")) // replaces a hot row
	s.Insert(fixtureDoc("", 4, " recrawled"))  // replaces a cold row
	s.Insert(fixtureDoc("beta", 28, " beta"))  // same URL, named tenant
	s.AddLink(link(28, 1, "c28"))
	s.AddLink(link(1, 28, ""))
	s.AddRedirect(redirect(28))
	mustFound := func(what string, ok bool) {
		if !ok {
			t.Fatalf("fixture: %s: document not found", what)
		}
	}
	mustFound("delete cold", s.DeleteDoc("", fixtureDoc("", 6, "").URL))
	mustFound("delete hot", s.DeleteDoc("", fixtureDoc("", 24, "").URL))
	mustFound("delete beta", s.DeleteDoc("beta", fixtureDoc("", 1, "").URL))
	for _, m := range []struct {
		tenant string
		i      int
		topic  string
		conf   float64
	}{
		{"", 8, "moved", 0.81},   // cold
		{"", 25, "moved", 0.25},  // hot
		{"beta", 2, "beta/x", 1}, // cold, named tenant
	} {
		mustFound("set topic", s.SetTopicDoc(m.tenant, fixtureDoc("", m.i, "").URL, m.topic, m.conf) == nil)
	}
	for _, m := range []struct {
		i        int
		training bool
	}{{9, true}, {12, false}, {26, true}, {27, false}} { // 9, 12 cold; 26, 27 hot
		mustFound("set training", s.SetTrainingDoc("", fixtureDoc("", m.i, "").URL, m.training) == nil)
	}
}

// TestDataDirFixture pins the on-disk format. testdata/datadir was written
// by writeFixtureScript on OpenTiered(dir, 2, fixture options) followed by
// Close, using the store as of commit 6258f34 — before live writes and
// WAL replay shared one mutation path — so a change to the WAL or segment
// encoding that round-trips through its own decoder still fails here.
// The fixture must reopen into exactly the store the same script builds
// in memory.
func TestDataDirFixture(t *testing.T) {
	dir := t.TempDir()
	if err := copyTree(filepath.Join("testdata", "datadir"), dir); err != nil {
		t.Fatal(err)
	}
	kinds := map[byte]int{}
	for _, shard := range []string{"shard-00", "shard-01"} {
		wals, _ := filepath.Glob(filepath.Join(dir, shard, "wal-*.log"))
		segs, _ := filepath.Glob(filepath.Join(dir, shard, "seg-*.bsg"))
		if len(wals) != 1 || len(segs) != 1 {
			t.Fatalf("%s: %d WAL generations, %d segments; the fixture holds one of each", shard, len(wals), len(segs))
		}
		if _, _, err := segment.ReplayWAL(wals[0], func(p []byte) error {
			kinds[p[0]]++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for op := byte(walOpDocs); op <= walOpSetTraining; op++ {
		if kinds[op] == 0 {
			t.Fatalf("fixture WAL tail holds no record of kind %d (kinds %v)", op, kinds)
		}
	}

	got := openTiered(t, dir, 0, fixtureTierOpts())
	defer got.Close()
	if got.NumShards() != 2 {
		t.Fatalf("fixture reopened with %d shards, want the pinned 2", got.NumShards())
	}
	if rec := got.Recovery(); rec.Segments != 2 || rec.WALRecords == 0 {
		t.Fatalf("recovery saw %d segments, %d WAL records; want 2 segments and a WAL tail", rec.Segments, rec.WALRecords)
	}
	want := NewSharded(2)
	writeFixtureScript(t, want)
	requireStoresEqual(t, "fixture", got, want)
}

// fixtureTierOpts are the options testdata/datadir was written with.
func fixtureTierOpts() TierOptions {
	return TierOptions{MemtableBudget: 1 << 40, DisableCompaction: true}
}

// copyTree copies the regular files under src into dst, keeping paths.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
