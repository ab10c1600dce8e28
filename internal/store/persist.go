package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"sync"
)

// Legacy stream reader. Releases before the data dir became the only
// on-disk format saved the store as a gob stream; this release no longer
// writes one, but still reads every version so old crawl databases and
// session files keep loading. Streams start with a magic and a one-byte
// format version; streams without the magic are the version-0 layout (a
// bare gob of the unsharded snapshot struct).
//
// Version 1 is a single gob of every row plus the shard layout. Version 2
// frames the snapshot per shard: a header frame carrying the shard layout,
// then one length-prefixed gob frame per shard holding that shard's
// documents, link rows and redirects. Every frame is shard-local (it
// carries both the shard's out-link and in-link rows), so Decode ingests
// all P frames in parallel. Version 3 keeps version 2's framing and adds
// the document Tenant field; versions 0-2 load as the default tenant.
var storeMagic = [4]byte{'B', 'N', 'G', 'O'}

// maxStreamVersion is the newest stream layout this release reads.
const maxStreamVersion = 3

// snapshotV0 is the historical version-0 serialized form (one global
// DocID sequence, no shard layout).
type snapshotV0 struct {
	NextID    DocID
	Docs      []Document
	Links     []Link
	Redirects []Redirect
}

// snapshotV1 is the version-1 serialized form: the shard layout rides
// along so DocIDs (which encode the shard in their low bits) stay valid on
// reload. The inverted index and topic index are rebuilt on read rather
// than serialized.
type snapshotV1 struct {
	ShardCount int
	NextSeqs   []int64
	Docs       []Document
	Links      []Link
	Redirects  []Redirect
}

// headerV2 is the layout frame of versions 2 and 3.
type headerV2 struct {
	ShardCount int
	NextSeqs   []int64
}

// shardFrameV2 is one shard's frame in versions 2 and 3. OutLinks/InLinks
// are the flattened rows of the shard's two link tables; redirects are the
// shard's redirect rows. Version-3 documents carry their Tenant; in a
// version-2 stream the field is absent and gob leaves it "" (the default
// tenant).
type shardFrameV2 struct {
	Docs      []Document
	OutLinks  []Link
	InLinks   []Link
	Redirects []Redirect
}

func readFrame(r io.Reader) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	b := make([]byte, binary.LittleEndian.Uint32(lenBuf[:]))
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

// Decode deserializes a legacy store stream into an in-memory store.
// Version-2 and -3 streams decode their shard frames in parallel; version-1
// streams restore the saved shard layout; streams without the version
// header are decoded as the version-0 (unsharded) layout into a
// single-shard store with their DocIDs preserved. An unknown version is a
// clear error, not a gob panic.
func Decode(r io.Reader) (*Store, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	head, err := br.Peek(5)
	if err != nil || !bytes.Equal(head[:4], storeMagic[:]) {
		// No magic: a version-0 stream (or garbage, which gob will reject
		// with its own error).
		return decodeV0(br)
	}
	if _, err := br.Discard(5); err != nil {
		return nil, fmt.Errorf("store: decode: %w", err)
	}
	switch version := head[4]; version {
	case 1:
		return decodeV1(br)
	case 2, 3:
		// Versions 2 and 3 share their framing; a v2 stream's documents
		// simply decode with Tenant == "" (the default tenant).
		return decodeFramed(br)
	default:
		return nil, fmt.Errorf("store: decode: unsupported format version %d (this release reads versions 0-%d)", version, maxStreamVersion)
	}
}

// decodeFramed reads the framed per-shard layout (versions 2 and 3),
// decoding and ingesting all shard frames concurrently.
func decodeFramed(r io.Reader) (*Store, error) {
	hdrBytes, err := readFrame(r)
	if err != nil {
		return nil, fmt.Errorf("store: decode: header frame: %w", err)
	}
	var hdr headerV2
	if err := gob.NewDecoder(bytes.NewReader(hdrBytes)).Decode(&hdr); err != nil {
		return nil, fmt.Errorf("store: decode: %w", err)
	}
	p := hdr.ShardCount
	if p < 1 || p > MaxShards || p&(p-1) != 0 {
		return nil, fmt.Errorf("store: decode: invalid shard count %d", p)
	}
	if len(hdr.NextSeqs) != p {
		return nil, fmt.Errorf("store: decode: %d shard sequences for %d shards", len(hdr.NextSeqs), p)
	}
	frames := make([][]byte, p)
	for i := range frames {
		if frames[i], err = readFrame(r); err != nil {
			return nil, fmt.Errorf("store: decode: shard %d frame: %w", i, err)
		}
	}
	s := NewSharded(p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for i := range frames {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.ingestFrameV2(i, frames[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for i, sh := range s.shards {
		sh.nextSeq = hdr.NextSeqs[i]
	}
	return s, nil
}

// ingestFrameV2 decodes one shard frame and rebuilds the shard's rows and
// index slice. Frames are shard-local, so concurrent ingests touch
// disjoint state.
func (s *Store) ingestFrameV2(i int, frame []byte) error {
	var fr shardFrameV2
	if err := gob.NewDecoder(bytes.NewReader(frame)).Decode(&fr); err != nil {
		return fmt.Errorf("store: decode: shard %d: %w", i, err)
	}
	sh := s.shards[i]
	for _, d := range fr.Docs {
		if s.shardOf(d.ID) != sh || s.shardForKey(d.key()) != sh {
			return fmt.Errorf("store: decode: document %q (id %d) does not belong to shard %d", d.URL, d.ID, i)
		}
	}
	sh.write(&wsShard{docs: fr.Docs, outLinks: fr.OutLinks, inLinks: fr.InLinks, redirects: fr.Redirects}, &writeCtx{replay: true})
	return nil
}

// decodeV1 reads the version-1 single-gob layout.
func decodeV1(r io.Reader) (*Store, error) {
	var snap snapshotV1
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("store: decode: %w", err)
	}
	p := snap.ShardCount
	if p < 1 || p > MaxShards || p&(p-1) != 0 {
		return nil, fmt.Errorf("store: decode: invalid shard count %d", p)
	}
	if len(snap.NextSeqs) != p {
		return nil, fmt.Errorf("store: decode: %d shard sequences for %d shards", len(snap.NextSeqs), p)
	}
	s := NewSharded(p)
	for _, d := range snap.Docs {
		if s.shardForURL(d.URL) != s.shardOf(d.ID) {
			return nil, fmt.Errorf("store: decode: document %q carries an ID of shard %d but routes to shard %d", d.URL, s.ShardOf(d.ID), s.ShardForURL(d.URL))
		}
	}
	loadRows(s, snap.Docs, snap.Links, snap.Redirects)
	for i, sh := range s.shards {
		sh.nextSeq = snap.NextSeqs[i]
	}
	return s, nil
}

// decodeV0 reads the historical headerless layout into a single-shard
// store, preserving its sequential DocIDs exactly.
func decodeV0(r io.Reader) (*Store, error) {
	var snap snapshotV0
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("store: decode: %w", err)
	}
	s := NewSharded(1)
	loadRows(s, snap.Docs, snap.Links, snap.Redirects)
	s.shards[0].nextSeq = int64(snap.NextID)
	return s, nil
}

// loadRows routes decoded rows to their owning shards and applies them in
// replay mode: documents keep their stored IDs and nothing is logged.
func loadRows(s *Store, docs []Document, links []Link, redirects []Redirect) {
	b := make([]wsShard, len(s.shards))
	for _, d := range docs {
		i := s.ShardOf(d.ID)
		b[i].docs = append(b[i].docs, d)
	}
	for _, l := range links {
		from, to := s.ShardForURL(l.From), s.ShardForURL(l.To)
		b[from].outLinks = append(b[from].outLinks, l)
		b[to].inLinks = append(b[to].inLinks, l)
	}
	for _, r := range redirects {
		i := s.ShardForURL(r.From)
		b[i].redirects = append(b[i].redirects, r)
	}
	wc := &writeCtx{replay: true}
	for i, sh := range s.shards {
		sh.write(&b[i], wc)
	}
}

// Load opens a saved crawl database. A directory is a tiered data dir
// (segments + WAL, the only format this release writes) and is opened with
// OpenTiered in its pinned shard layout; the caller must Close the store. A
// file is a gob stream of versions 0-3 written by earlier releases and is
// decoded into memory.
func Load(path string) (*Store, error) {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		p, ok, err := pinnedShards(path)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("store: load: %s is not a data dir (no TIER.json)", path)
		}
		return OpenTiered(path, p, TierOptions{})
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: load: %w", err)
	}
	defer f.Close()
	return Decode(bufio.NewReader(f))
}
