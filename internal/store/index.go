package store

import "sync"

// indexShards sizes the sharded inverted index. Term appends from
// concurrent workspace flushes land on shards chosen by term hash, so two
// flushing crawler threads only collide when they touch the same shard at
// the same instant instead of serializing on one big index lock.
const indexShards = 64

type indexShard struct {
	mu sync.RWMutex
	m  map[string][]posting
}

// termIndex is the sharded inverted index (term -> postings in insert
// order). It is internally synchronized and safe for concurrent use.
type termIndex struct {
	shards [indexShards]indexShard
}

func newTermIndex() *termIndex {
	return newTermIndexSized(512)
}

// newTermIndexSized pre-sizes each term-hash shard's map. A crawl touches
// tens of thousands of distinct terms, and growing 64 small maps beats
// rehashing one giant one under a global lock; stores partitioned into
// many document shards pass a smaller hint so P term indexes do not
// pre-allocate P times the memory one did.
func newTermIndexSized(hint int) *termIndex {
	t := &termIndex{}
	for i := range t.shards {
		t.shards[i].m = make(map[string][]posting, hint)
	}
	return t
}

// fnv32 is the 32-bit FNV-1a hash used to pick a shard.
func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

func (t *termIndex) shard(term string) *indexShard {
	return &t.shards[fnv32(term)%indexShards]
}

// removeDoc deletes the postings of one document.
func (t *termIndex) removeDoc(id DocID, terms map[string]int) {
	var removed int64
	for term := range terms {
		sh := t.shard(term)
		sh.mu.Lock()
		ps := sh.m[term]
		for i := range ps {
			if ps[i].doc == id {
				sh.m[term] = append(ps[:i], ps[i+1:]...)
				removed++
				break
			}
		}
		if len(sh.m[term]) == 0 {
			delete(sh.m, term)
		}
		sh.mu.Unlock()
	}
	mPostings.Add(-removed)
}

// termAdd is one pending posting append in an indexBatch.
type termAdd struct {
	term string
	p    posting
}

// indexBatch groups posting appends by shard so a bulk load locks each
// touched shard once instead of once per (term, doc) pair. A batch belongs
// to one workspace (single goroutine) and is reused across flushes.
type indexBatch struct {
	groups [indexShards][]termAdd
}

// bulkAdd appends one posting per term of each document, grouped by shard.
// ids[i] is the store-assigned DocID of terms[i]; a nil terms[i] adds
// nothing.
func (t *termIndex) bulkAdd(b *indexBatch, ids []DocID, terms []map[string]int) {
	for i, m := range terms {
		for term, tf := range m {
			si := fnv32(term) % indexShards
			b.groups[si] = append(b.groups[si], termAdd{term: term, p: posting{doc: ids[i], tf: tf}})
		}
	}
	for si := range b.groups {
		g := b.groups[si]
		if len(g) == 0 {
			continue
		}
		sh := &t.shards[si]
		sh.mu.Lock()
		for _, a := range g {
			sh.m[a.term] = append(sh.m[a.term], a.p)
		}
		sh.mu.Unlock()
		mPostings.Add(int64(len(g)))
		b.groups[si] = g[:0]
	}
}

// get returns a term's postings as parallel (docID, tf) slices.
func (t *termIndex) get(term string) ([]DocID, []int) {
	sh := t.shard(term)
	sh.mu.RLock()
	ps := sh.m[term]
	ids := make([]DocID, len(ps))
	tfs := make([]int, len(ps))
	for i, p := range ps {
		ids[i] = p.doc
		tfs[i] = p.tf
	}
	sh.mu.RUnlock()
	return ids, tfs
}

// visit streams a term's postings to fn under the shard's read lock. No
// copies are made; fn must not retain references or call back into the
// index (the shard stays read-locked until the visit completes).
func (t *termIndex) visit(term string, fn func(doc DocID, tf int)) {
	sh := t.shard(term)
	sh.mu.RLock()
	for _, p := range sh.m[term] {
		fn(p.doc, p.tf)
	}
	sh.mu.RUnlock()
}

// docFreq returns the number of postings for a term.
func (t *termIndex) docFreq(term string) int {
	sh := t.shard(term)
	sh.mu.RLock()
	n := len(sh.m[term])
	sh.mu.RUnlock()
	return n
}
