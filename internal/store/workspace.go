package store

import "time"

// This file implements the batched write path: workspaces buffer rows per
// crawler thread and move them into the store with one bulk load, which is
// what lets the crawl sustain §4.1's "up to ten thousand documents per
// minute" without per-row lock traffic. Rows are buffered per document
// shard at Add time, so a flush walks the shards it actually touched and
// takes each shard's relation locks exactly once — two threads flushing
// simultaneously only contend when they touch the same shard's same
// relation at the same instant. Flush sizes and durations are exported as
// store_flush_rows / store_flush_nanos so an operator can see whether
// batching is actually happening (many small flushes mean the batch size
// is too low or the crawl is starved).
//
// Each shard's slice of a flush goes through the same per-shard apply code
// as the per-row mutators and WAL replay (mutate.go). In a tiered store a
// flush is also the WAL batching point: each relation's rows are appended
// to the owning shard's WAL as one record while that relation's lock is
// held, and the touched logs are fsynced once at the end of the flush —
// one fsync per flush per shard, not per row. Flush is also where memtable
// pressure is relieved: a shard over its budget is frozen synchronously on
// the flushing (crawler) thread, which is the write-path backpressure that
// keeps ingest from outrunning the disk.

// wsShard is one shard's slice of a workspace buffer. An out-link row is
// buffered on its source URL's shard, an in-link row on its target's (the
// same Link lands in two buffers when the endpoints hash apart), matching
// the store's link-row routing.
type wsShard struct {
	docs      []Document
	outLinks  []Link
	inLinks   []Link
	redirects []Redirect
}

func (b *wsShard) rows() int {
	return len(b.docs) + len(b.outLinks) + len(b.redirects)
}

// Workspace is a per-crawler-thread write buffer (§4.1): "Each thread
// batches the storing of new documents and avoids SQL insert commands by
// first collecting a certain number of documents in workspaces and then
// invoking the database system's bulk loader." Flush moves each buffered
// relation into its owning shard under that shard's relation lock.
//
// A workspace is owned by one goroutine; only the store it flushes into is
// shared.
type Workspace struct {
	store     *Store
	batchSize int
	byShard   []wsShard
	buffered  int // total rows across shards (in-link rows not double-counted)
	pending   int // buffered documents

	// err holds a flush error raised by an auto-flush inside Add, carried
	// to the next explicit Flush call.
	err error

	// wc is the flush's write context, reused across batches so the
	// steady state allocates nothing per flush.
	wc writeCtx
}

// NewWorkspace returns a workspace that auto-flushes when the total number
// of buffered rows — documents, links, and redirects — reaches batchSize
// (default 64). Counting all rows, not just documents, bounds the buffer on
// link-heavy pages too.
func (s *Store) NewWorkspace(batchSize int) *Workspace {
	if batchSize <= 0 {
		batchSize = 64
	}
	return &Workspace{
		store:     s,
		batchSize: batchSize,
		byShard:   make([]wsShard, len(s.shards)),
	}
}

// Add buffers a document, flushing automatically when the batch is full.
// The document routes to its shard by docKey, so two tenants crawling the
// same URL keep distinct rows.
func (w *Workspace) Add(d Document) {
	b := &w.byShard[int(fnv32(d.key())&w.store.mask)]
	b.docs = append(b.docs, d)
	w.buffered++
	w.pending++
	w.maybeFlush()
}

// AddLink buffers a link row, flushing automatically when the batch is full.
func (w *Workspace) AddLink(l Link) {
	from := w.store.ShardForURL(l.From)
	to := w.store.ShardForURL(l.To)
	w.byShard[from].outLinks = append(w.byShard[from].outLinks, l)
	w.byShard[to].inLinks = append(w.byShard[to].inLinks, l)
	w.buffered++
	w.maybeFlush()
}

// AddRedirect buffers a redirect row, flushing automatically when the batch
// is full.
func (w *Workspace) AddRedirect(r Redirect) {
	b := &w.byShard[w.store.ShardForURL(r.From)]
	b.redirects = append(b.redirects, r)
	w.buffered++
	w.maybeFlush()
}

// Pending returns the number of buffered documents.
func (w *Workspace) Pending() int { return w.pending }

// Buffered returns the total number of buffered rows across all relations.
func (w *Workspace) Buffered() int { return w.buffered }

func (w *Workspace) maybeFlush() {
	if w.buffered >= w.batchSize {
		if err := w.Flush(); err != nil && w.err == nil {
			w.err = err
		}
	}
}

// Flush bulk-loads all buffered rows into their owning shards, walking the
// shards in index order and skipping untouched ones. In a tiered store it
// returns the first write-ahead-log or segment error since the previous
// flush — a crawler must treat that as "recent acknowledgements may not be
// durable"; for a purely in-memory store the error is always nil.
func (w *Workspace) Flush() error {
	if w.buffered == 0 {
		return w.takeErr()
	}
	start := time.Now()
	mFlushRows.Observe(int64(w.buffered))
	s := w.store
	for si := range w.byShard {
		b := &w.byShard[si]
		if b.rows() == 0 && len(b.inLinks) == 0 {
			continue
		}
		s.shards[si].write(b, &w.wc)
		b.docs = b.docs[:0]
		b.outLinks = b.outLinks[:0]
		b.inLinks = b.inLinks[:0]
		b.redirects = b.redirects[:0]
	}
	s.bulkLoads.Add(1)
	mBulkLoads.Inc()
	w.buffered = 0
	w.pending = 0
	s.settle(&w.wc)
	mFlushNanos.ObserveSince(start)
	if err := w.takeErr(); err != nil {
		return err
	}
	return s.TierErr()
}

func (w *Workspace) takeErr() error {
	err := w.err
	w.err = nil
	return err
}
