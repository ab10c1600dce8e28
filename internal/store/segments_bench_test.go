package store

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// The tiered-storage benchmark: how much corpus fits in a fixed amount of
// heap once document payloads live in compressed segments, how long a cold
// start over the segments takes, and what write amplification the WAL +
// freeze + compaction pipeline costs. Opt-in via
// BENCH_JSON=<path> (the Makefile `bench-segments` target sets it); the
// equivalence gate at the end runs the full read-API comparison between the
// tiered and the in-memory store over the same corpus.

// benchCorpusDoc builds document i of the benchmark corpus: ~1.5 KiB of
// synthetic text and a realistic term vector, deterministic in i.
func benchCorpusDoc(rng *rand.Rand, i int) Document {
	var text []byte
	for len(text) < 1500 {
		text = append(text, fmt.Sprintf("segment tier benchmark body %d word%d recovery transaction log ", i, rng.Intn(5000))...)
	}
	terms := make(map[string]int, 60)
	terms["alpha"] = 1 + i%4
	for j := 0; j < 60; j++ {
		terms[fmt.Sprintf("term%04d", rng.Intn(4000))] += 1 + rng.Intn(3)
	}
	u := fmt.Sprintf("http://bench%d.example/doc/%d", i%31, i)
	return Document{
		URL: u, FinalURL: u,
		Title:       fmt.Sprintf("benchmark document %d", i),
		ContentType: "text/html",
		Topic:       []string{"ROOT/db", "ROOT/db/recovery", "ROOT/web"}[i%3],
		Confidence:  float64(i%97) / 97,
		Depth:       i % 6,
		Text:        string(text),
		Terms:       terms,
		CrawledAt:   time.Unix(1700000000+int64(i), 0),
	}
}

// fillBenchCorpus streams nDocs benchmark documents into the store through
// a workspace (the crawler write path) and returns the logical payload
// bytes (text + terms) it inserted.
func fillBenchCorpus(t testing.TB, s *Store, nDocs int) int64 {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	w := s.NewWorkspace(64)
	var logical int64
	for i := 0; i < nDocs; i++ {
		d := benchCorpusDoc(rng, i)
		logical += int64(len(d.Text))
		for term := range d.Terms {
			logical += int64(len(term)) + 8
		}
		w.Add(d)
		if i%4 == 0 {
			w.AddLink(Link{From: d.URL, To: fmt.Sprintf("http://bench%d.example/doc/%d", (i+1)%31, (i+1)%nDocs), Anchor: "next"})
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return logical
}

// heapInUse returns the live heap after a double GC (the second collection
// sweeps what the first one's finalizers released).
func heapInUse() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

func dirBytes(t testing.TB, dir string) int64 {
	t.Helper()
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			n += info.Size()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walk %s: %v", dir, err)
	}
	return n
}

// BenchmarkTieredColdStart times OpenTiered over a frozen corpus — the
// O(segment metadata + WAL tail) path a restart pays.
func BenchmarkTieredColdStart(b *testing.B) {
	dir := b.TempDir()
	s, err := OpenTiered(dir, 4, TierOptions{DisableCompaction: true})
	if err != nil {
		b.Fatal(err)
	}
	fillBenchCorpus(b, s, 4000)
	for i := 0; i < s.NumShards(); i++ {
		if err := s.FreezeShard(i); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		re, err := OpenTiered(dir, 4, TierOptions{DisableCompaction: true})
		if err != nil {
			b.Fatal(err)
		}
		if re.NumDocs() != 4000 {
			b.Fatalf("recovered %d docs", re.NumDocs())
		}
		b.StopTimer()
		re.Close()
		b.StartTimer()
	}
}

// TestWriteSegmentsBenchJSON records the tiered-storage evidence in a JSON
// file: heap per document for the in-memory vs the segment-backed store
// (the "corpus bigger than RAM" headline), cold-start latency, write
// amplification, compression ratio, and the equivalence gate.
func TestWriteSegmentsBenchJSON(t *testing.T) {
	out := os.Getenv("BENCH_JSON")
	if out == "" {
		t.Skip("set BENCH_JSON=<output path> to run the tiered-storage measurement")
	}
	const nDocs = 6000
	const shards = 4

	// --- In-memory heap footprint ---
	base := heapInUse()
	mem := NewSharded(shards)
	logical := fillBenchCorpus(t, mem, nDocs)
	memHeap := heapInUse() - base

	// --- Tiered heap footprint (everything frozen into segments) ---
	walBytes0 := mWALBytes.Value()
	segBytes0 := mSegBytes.Value()
	compactIn0 := mCompactBytesIn.Value()
	dir := t.TempDir()
	tiered, err := OpenTiered(dir, shards, TierOptions{CompactFanout: 2, DisableCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	// Freeze in waves so compaction has real work, then merge to one tier.
	third := nDocs / 3
	rng := rand.New(rand.NewSource(17))
	w := tiered.NewWorkspace(64)
	for i := 0; i < nDocs; i++ {
		d := benchCorpusDoc(rng, i)
		w.Add(d)
		if i%4 == 0 {
			w.AddLink(Link{From: d.URL, To: fmt.Sprintf("http://bench%d.example/doc/%d", (i+1)%31, (i+1)%nDocs), Anchor: "next"})
		}
		if i == third || i == 2*third {
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			for si := 0; si < shards; si++ {
				if err := tiered.FreezeShard(si); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for si := 0; si < shards; si++ {
		if err := tiered.FreezeShard(si); err != nil {
			t.Fatal(err)
		}
		for {
			did, err := tiered.CompactShard(si)
			if err != nil {
				t.Fatal(err)
			}
			if !did {
				break
			}
		}
	}
	tieredHeap := heapInUse() - base - memHeap
	if tieredHeap <= 0 {
		tieredHeap = 1
	}
	segDisk := dirBytes(t, dir)
	walWritten := mWALBytes.Value() - walBytes0
	// Total segment bytes ever written = current resident bytes plus every
	// compaction input that was later merged away.
	segWritten := (mSegBytes.Value() - segBytes0) + (mCompactBytesIn.Value() - compactIn0)
	writeAmp := float64(walWritten+segWritten) / float64(logical)

	// --- Equivalence gate: every read API must agree with the in-memory
	// store before any timing number is worth reporting. ---
	requireStoresEqual(t, "bench-equivalence", tiered, mem)

	// --- Cold start: reopen the segments ---
	if err := tiered.Close(); err != nil {
		t.Fatal(err)
	}
	const rounds = 5
	var tierNanos []float64
	for i := 0; i < rounds; i++ {
		start := time.Now()
		re, err := OpenTiered(dir, shards, TierOptions{DisableCompaction: true})
		if err != nil {
			t.Fatal(err)
		}
		tierNanos = append(tierNanos, float64(time.Since(start)))
		if re.NumDocs() != nDocs {
			t.Fatalf("tiered reopen got %d docs", re.NumDocs())
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
	tierMedian := medianOf(tierNanos)

	corpusRatio := float64(memHeap) / float64(tieredHeap)
	report := struct {
		Benchmark        string  `json:"benchmark"`
		Docs             int     `json:"docs"`
		Shards           int     `json:"shards"`
		LogicalBytes     int64   `json:"logical_payload_bytes"`
		MemHeapBytes     int64   `json:"in_memory_heap_bytes"`
		TieredHeapBytes  int64   `json:"tiered_heap_bytes"`
		CorpusRatio      float64 `json:"corpus_per_heap_ratio"`
		SegmentDiskBytes int64   `json:"segment_disk_bytes"`
		Compression      float64 `json:"disk_compression_ratio"`
		WALBytes         int64   `json:"wal_bytes_written"`
		SegBytesWritten  int64   `json:"segment_bytes_written"`
		WriteAmp         float64 `json:"write_amplification"`
		TieredOpenMillis float64 `json:"tiered_cold_start_ms_median"`
		Equivalence      string  `json:"equivalence_gate"`
	}{
		Benchmark:        "in-memory store vs tiered segments: heap footprint, cold start, write amplification",
		Docs:             nDocs,
		Shards:           shards,
		LogicalBytes:     logical,
		MemHeapBytes:     memHeap,
		TieredHeapBytes:  tieredHeap,
		CorpusRatio:      corpusRatio,
		SegmentDiskBytes: segDisk,
		Compression:      float64(logical) / float64(segDisk),
		WALBytes:         walWritten,
		SegBytesWritten:  segWritten,
		WriteAmp:         writeAmp,
		TieredOpenMillis: tierMedian / 1e6,
		Equivalence:      "passed: all read APIs bit-identical to the in-memory store",
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("corpus/heap ratio %.1fx, cold start %.1fms, write amplification %.2f, disk compression %.2fx -> %s",
		corpusRatio, tierMedian/1e6, writeAmp, report.Compression, out)
	if corpusRatio < 4 {
		t.Errorf("tiered heap holds only %.1fx the corpus of the in-memory store, below the 4x target", corpusRatio)
	}
	runtime.KeepAlive(mem)
}

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}
