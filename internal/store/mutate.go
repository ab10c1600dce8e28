package store

import (
	"fmt"
	"time"

	"github.com/bingo-search/bingo/internal/segment"
)

// This file is the store's one mutation path. Every write reaches a shard
// through the apply function of its WAL record kind, whether it comes from
// a workspace flush, a per-row mutator, or a record replayed at open:
//
//	kind          encoder             apply
//	docs          encodeDocs          putDocs
//	links         encodeLinks         putLinks
//	redirects     encodeRedirects     putRedirects
//	delete        encodeDelete        deleteKey
//	set-topic     encodeSetTopic      setTopic
//	set-training  encodeSetTraining   setTraining
//
// A live write and replay differ in two things only: a live write assigns
// fresh sequence numbers and appends the encoded record to the shard's WAL
// (logLocked), under the same relation lock that applied it; replay keeps
// the logged sequence numbers and appends nothing. The state a reopened
// data dir rebuilds is therefore made by the code that made the live
// state. Every live write then runs one epilogue (settle): under WALSync
// it fsyncs each WAL it appended to — once per touched shard, so a
// workspace flush of a thousand rows and a single AddLink each pay one
// fsync per shard — counts its documents durable, and freezes any shard
// over its memtable share.

// writeCtx carries one write through the apply functions: whether it is a
// replay, the scratch a workspace reuses across flushes, and what settle
// needs.
type writeCtx struct {
	replay bool // WAL replay: keep logged sequence numbers, append nothing

	ids      []DocID
	terms    []map[string]int
	replaced []*Document
	idxBatch indexBatch
	enc      segment.Enc

	logged []loggedWAL // distinct WALs this write appended to
	docs   int64       // documents this write applied
	lost   bool        // an append failed: nothing here is durable
}

// loggedWAL is one WAL a write appended to, with its shard.
type loggedWAL struct {
	sh  *storeShard
	wal *segment.WAL
}

// logLocked appends the record encode writes to the shard's WAL; an
// in-memory shard and WAL replay log nothing. The caller holds the lock of
// the relation the record applies to, which makes apply and append atomic
// with respect to a freeze's WAL rotation.
func (sh *storeShard) logLocked(wc *writeCtx, encode func(e *segment.Enc)) {
	if sh.tier == nil || wc.replay {
		return
	}
	wc.enc.Reset()
	encode(&wc.enc)
	w, err := sh.tier.appendWALLocked(wc.enc.Bytes())
	if err != nil {
		wc.lost = true
	}
	if w == nil {
		return
	}
	for _, l := range wc.logged {
		if l.wal == w {
			return
		}
	}
	wc.logged = append(wc.logged, loggedWAL{sh, w})
}

// settle is the epilogue of every live write. Called without locks; a
// write that logged nothing (an in-memory store) has nothing to settle.
func (s *Store) settle(wc *writeCtx) {
	if len(wc.logged) > 0 && s.opt.WALSync {
		start := time.Now()
		synced := !wc.lost
		for _, l := range wc.logged {
			if err := l.wal.Sync(); err != nil {
				synced = false
				l.sh.tier.noteErr(err)
			}
		}
		mWALSyncNanos.ObserveSince(start)
		if synced {
			s.durable.Add(wc.docs)
		}
	}
	for _, l := range wc.logged {
		s.maybeFreeze(l.sh)
	}
	wc.logged, wc.docs, wc.lost = wc.logged[:0], 0, false
}

// write applies one shard's slice of a write — the per-shard body of
// Workspace.Flush, and all of Insert, AddLink and AddRedirect — and
// advances the shard's epoch.
func (sh *storeShard) write(b *wsShard, wc *writeCtx) {
	if len(b.docs) > 0 {
		sh.putDocs(b.docs, wc)
	}
	if len(b.outLinks) > 0 || len(b.inLinks) > 0 {
		sh.putLinks(b.outLinks, b.inLinks, wc)
	}
	if len(b.redirects) > 0 {
		sh.putRedirects(b.redirects, wc)
	}
	sh.bumpEpoch()
}

// putDocs applies a docs record. Each row replaces any row stored under
// its key. A live write assigns docs[i].ID from the shard's sequence;
// replay passes the logged IDs. The postings change outside docMu, under
// the shard's indexing lock, so concurrent flushes to one shard serialize
// only on their row inserts.
func (sh *storeShard) putDocs(docs []Document, wc *writeCtx) {
	sh.indexing.RLock()
	defer sh.indexing.RUnlock()
	wc.ids, wc.terms, wc.replaced = wc.ids[:0], wc.terms[:0], wc.replaced[:0]
	sh.docMu.Lock()
	for i := range docs {
		d := &docs[i]
		if oldID, ok := sh.byURL[d.key()]; ok {
			old := sh.removeDocLocked(oldID)
			if j := indexOfID(wc.ids, oldID); j >= 0 {
				wc.terms[j] = nil // replaced within this record: never indexed
			} else {
				wc.replaced = append(wc.replaced, old)
			}
		}
		if wc.replay {
			sh.nextSeq = max(sh.nextSeq, int64(d.ID)>>sh.bits)
		} else {
			sh.nextSeq++
			d.ID = sh.idFor(sh.nextSeq)
		}
		sh.addDocLocked(*d)
		wc.ids = append(wc.ids, d.ID)
		wc.terms = append(wc.terms, d.Terms)
	}
	sh.tier.captureHotLocked(wsShard{docs: docs})
	sh.logLocked(wc, func(e *segment.Enc) { encodeDocs(e, sh.bits, docs) })
	sh.docMu.Unlock()
	for _, old := range wc.replaced {
		sh.index.removeDoc(old.ID, old.Terms)
	}
	sh.index.bulkAdd(&wc.idxBatch, wc.ids, wc.terms)
	wc.docs += int64(len(docs))
}

func indexOfID(ids []DocID, id DocID) int {
	for j := range ids {
		if ids[j] == id {
			return j
		}
	}
	return -1
}

// putLinks applies a links record: out-link rows join the table of their
// source URL, in-link rows that of their target.
func (sh *storeShard) putLinks(out, in []Link, wc *writeCtx) {
	sh.linkMu.Lock()
	defer sh.linkMu.Unlock()
	// Out-links are buffered page by page, so out is runs of equal From;
	// append each run in one shot instead of re-probing the map per link.
	for i := 0; i < len(out); {
		j := i + 1
		for j < len(out) && out[j].From == out[i].From {
			j++
		}
		sh.outLinks[out[i].From] = append(sh.outLinks[out[i].From], out[i:j]...)
		i = j
	}
	for _, l := range in {
		sh.inLinks[l.To] = append(sh.inLinks[l.To], l)
	}
	sh.tier.captureHotLocked(wsShard{outLinks: out, inLinks: in})
	sh.logLocked(wc, func(e *segment.Enc) { encodeLinks(e, out, in) })
}

// putRedirects applies a redirects record.
func (sh *storeShard) putRedirects(rs []Redirect, wc *writeCtx) {
	sh.redirMu.Lock()
	defer sh.redirMu.Unlock()
	sh.redirects = append(sh.redirects, rs...)
	sh.tier.captureHotLocked(wsShard{redirects: rs})
	sh.logLocked(wc, func(e *segment.Enc) { encodeRedirects(e, rs) })
}

// deleteKey applies a delete record, reporting whether key was stored.
// Like the other keyed mutations it logs nothing for an absent key, and
// replay skips keys it does not hold. Mutation records address rows by
// docKey (the bare URL in logs written before tenancy, which is the
// default tenant's key).
func (sh *storeShard) deleteKey(key string, wc *writeCtx) bool {
	sh.docMu.Lock()
	defer sh.docMu.Unlock()
	id, ok := sh.byURL[key]
	if !ok {
		return false
	}
	d := sh.removeDocLocked(id)
	sh.index.removeDoc(id, d.Terms)
	sh.logLocked(wc, func(e *segment.Enc) { encodeDelete(e, key) })
	return true
}

// setTopic applies a set-topic record (re-classification after
// retraining), reporting whether key was stored.
func (sh *storeShard) setTopic(key, topic string, conf float64, wc *writeCtx) bool {
	sh.docMu.Lock()
	defer sh.docMu.Unlock()
	id, ok := sh.byURL[key]
	if !ok {
		return false
	}
	d := sh.docs[id]
	sh.dropTopicLocked(d.Topic, id)
	d.Topic, d.Confidence = topic, conf
	if topic != "" {
		sh.byTopic[topic] = append(sh.byTopic[topic], id)
	}
	sh.noteColdTopicLocked(id, topic, conf)
	sh.logLocked(wc, func(e *segment.Enc) { encodeSetTopic(e, key, topic, conf) })
	return true
}

// setTraining applies a set-training record, reporting whether key was
// stored.
func (sh *storeShard) setTraining(key string, training bool, wc *writeCtx) bool {
	sh.docMu.Lock()
	defer sh.docMu.Unlock()
	id, ok := sh.byURL[key]
	if !ok {
		return false
	}
	sh.docs[id].IsTraining = training
	sh.noteColdTrainingLocked(id, training)
	sh.logLocked(wc, func(e *segment.Enc) { encodeSetTraining(e, key, training) })
	return true
}

// ---------------------------------------------------------------------------
// WAL record encoders: one per kind, the only writers of each layout.

// encodeDocs frames a docs record: each row's shard-local sequence number,
// meta, term counts and text. Terms are written in map order; replay
// rebuilds the map and freezing sorts, so order on the wire is irrelevant.
func encodeDocs(e *segment.Enc, bits uint, docs []Document) {
	e.Byte(walOpDocs)
	e.Uvarint(uint64(len(docs)))
	for i := range docs {
		d := &docs[i]
		m := metaFromDoc(d)
		e.Meta(int64(d.ID)>>bits, &m)
		e.Uvarint(uint64(len(d.Terms)))
		for t, tf := range d.Terms {
			e.Str(t)
			e.Varint(int64(tf))
		}
		e.Str(d.Text)
	}
}

// encodeLinks frames a links record; each row carries whether it is an
// out-link (true) or an in-link row.
func encodeLinks(e *segment.Enc, out, in []Link) {
	e.Byte(walOpLinks)
	e.Uvarint(uint64(len(out) + len(in)))
	for _, l := range out {
		e.Bool(true)
		e.Str(l.From)
		e.Str(l.To)
		e.Str(l.Anchor)
	}
	for _, l := range in {
		e.Bool(false)
		e.Str(l.From)
		e.Str(l.To)
		e.Str(l.Anchor)
	}
}

func encodeRedirects(e *segment.Enc, rs []Redirect) {
	e.Byte(walOpRedirects)
	e.Uvarint(uint64(len(rs)))
	for _, r := range rs {
		e.Str(r.From)
		e.Str(r.To)
	}
}

func encodeDelete(e *segment.Enc, key string) {
	e.Byte(walOpDelete)
	e.Str(key)
}

func encodeSetTopic(e *segment.Enc, key, topic string, conf float64) {
	e.Byte(walOpSetTopic)
	e.Str(key)
	e.Str(topic)
	e.F64(conf)
}

func encodeSetTraining(e *segment.Enc, key string, training bool) {
	e.Byte(walOpSetTraining)
	e.Str(key)
	e.Bool(training)
}

// applyWALRecord replays one record during open: it decodes the whole
// record, then hands it to its kind's apply function in replay mode.
func (s *Store) applyWALRecord(sh *storeShard, payload []byte, wc *writeCtx, stats *RecoveryStats) error {
	d := segment.NewDecoder(payload, fmt.Sprintf("shard %d wal", sh.idx))
	var apply func()
	switch op := d.Byte(); op {
	case walOpDocs:
		var docs []Document
		for i, n := uint64(0), d.Uvarint(); i < n && d.Err() == nil; i++ {
			seq, m := d.Meta()
			doc := docFromMeta(&m)
			doc.ID = sh.idFor(seq)
			nt := d.Uvarint()
			doc.Terms = make(map[string]int, nt)
			for j := uint64(0); j < nt; j++ {
				t := d.Str()
				doc.Terms[t] = int(d.Varint())
			}
			doc.Text = d.Str()
			docs = append(docs, doc)
		}
		apply = func() {
			sh.putDocs(docs, wc)
			stats.WALDocs += len(docs)
		}
	case walOpLinks:
		var out, in []Link
		for i, n := uint64(0), d.Uvarint(); i < n && d.Err() == nil; i++ {
			isOut := d.Bool()
			l := Link{From: d.Str(), To: d.Str(), Anchor: d.Str()}
			if isOut {
				out = append(out, l)
			} else {
				in = append(in, l)
			}
		}
		apply = func() { sh.putLinks(out, in, wc) }
	case walOpRedirects:
		var rs []Redirect
		for i, n := uint64(0), d.Uvarint(); i < n && d.Err() == nil; i++ {
			rs = append(rs, Redirect{From: d.Str(), To: d.Str()})
		}
		apply = func() { sh.putRedirects(rs, wc) }
	case walOpDelete:
		key := d.Str()
		apply = func() { sh.deleteKey(key, wc) }
	case walOpSetTopic:
		key, topic, conf := d.Str(), d.Str(), d.F64()
		apply = func() { sh.setTopic(key, topic, conf, wc) }
	case walOpSetTraining:
		key, training := d.Str(), d.Bool()
		apply = func() { sh.setTraining(key, training, wc) }
	default:
		return fmt.Errorf("store: shard %d wal: unknown record kind %d", sh.idx, op)
	}
	if err := d.Err(); err != nil {
		return err
	}
	apply()
	return nil
}
