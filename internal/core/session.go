package core

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"

	"github.com/bingo-search/bingo/internal/classify"
	"github.com/bingo-search/bingo/internal/features"
	"github.com/bingo-search/bingo/internal/frontier"
	"github.com/bingo-search/bingo/internal/store"
)

// Session persistence: the paper's usage model is "a few minutes for
// setting up an overnight crawl, and another few minutes for looking at the
// results the next morning" (§1.2). The crawl database lives in the
// engine's data dir (Config.DataDir), which is durable on its own. A
// session file holds the rest of what a resumed crawl needs: the current
// training set (seeds + promoted archetypes + feedback), the seed topics,
// the lifecycle counters, and the crawl frontier — queued links, cooling
// breaker requeues (with their remaining delays), and the dedup set — so a
// resumed harvest picks up mid-queue instead of only re-seeding from hubs.
// LoadSession reopens the data dir, re-trains the classifier from the
// restored training set, restores the frontier, and primes the duplicate
// detector with every stored URL so a resumed harvest does not refetch.
//
// Session files start with a magic and a one-byte format version, so a
// reader can reject an incompatible file with a clear error. Version 3
// holds the state alone. Earlier releases wrote version 2 (the header, the
// state, then a store stream) and version 1 (no header, the state's gob
// Version field is 1, then a store stream); both still load, into memory.
var sessionMagic = [4]byte{'B', 'N', 'G', 'S'}

// savedDoc is the serialized form of a training document.
type savedDoc struct {
	ID      string
	Stems   []string
	Anchors []string
}

// sessionState is the serialized engine state. Version 2 added the
// frontier snapshot (version-1 states load with an empty one); in versions
// 1 and 2 a store stream follows the state, in version 3 nothing does.
type sessionState struct {
	Version    int
	Training   map[string][]savedDoc
	Others     []savedDoc
	SeedTopics map[string]string
	Retrains   int
	Phase      Phase
	Frontier   frontier.Dump
}

const sessionVersion = 3

// SaveSession makes the crawl database durable in the engine's data dir
// and then writes the default tenant's crawl state to path atomically. It
// fails when the engine has no Config.DataDir: the documents of a saved
// session live there, not in the session file. (Sessions are a
// single-portal artifact: the shared store may carry other tenants' rows,
// but training, seeds, phase and frontier are the default tenant's.)
func (e *Engine) SaveSession(path string) error {
	if e.cfg.DataDir == "" {
		return errors.New("core: save session: the engine has no data dir (Config.DataDir) to keep the crawl database in")
	}
	// Freeze every shard so each stored document is in a segment on disk
	// before the state that refers to it is written.
	for i := 0; i < e.store.NumShards(); i++ {
		if err := e.store.FreezeShard(i); err != nil {
			return fmt.Errorf("core: save session: %w", err)
		}
	}
	if err := e.store.TierErr(); err != nil {
		return fmt.Errorf("core: save session: %w", err)
	}

	def := e.def
	def.mu.RLock()
	st := sessionState{
		Version:    sessionVersion,
		Training:   make(map[string][]savedDoc, len(def.training.ByTopic)),
		SeedTopics: make(map[string]string, len(def.seedTopics)),
		Retrains:   def.retrains,
		Phase:      def.phase,
	}
	for topic, docs := range def.training.ByTopic {
		for _, d := range docs {
			st.Training[topic] = append(st.Training[topic], saveDoc(d))
		}
	}
	for _, d := range def.training.Others {
		st.Others = append(st.Others, saveDoc(d))
	}
	for u, t := range def.seedTopics {
		st.SeedTopics[u] = t
	}
	def.mu.RUnlock()
	st.Frontier = def.frontier.Dump()

	var buf bytes.Buffer
	buf.Write(sessionMagic[:])
	buf.WriteByte(sessionVersion)
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		return fmt.Errorf("core: save session: %w", err)
	}
	tmp := path + ".tmp"
	err := os.WriteFile(tmp, buf.Bytes(), 0o644)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: save session: %w", err)
	}
	return nil
}

func saveDoc(d classify.Doc) savedDoc {
	return savedDoc{ID: d.ID, Stems: d.Input.Stems, Anchors: d.Input.Anchors}
}

func loadDoc(d savedDoc) classify.Doc {
	return classify.Doc{ID: d.ID, Input: features.DocInput{Stems: d.Stems, Anchors: d.Anchors}}
}

// LoadSession rebuilds an engine from a saved session. cfg must describe
// the same topic tree; transports, budgets and tuning may differ (e.g. a
// larger harvest budget for the resumed crawl). A version-3 session
// resumes in cfg.DataDir, which must be the data dir the crawl was saved
// in. A version-1 or -2 session embeds its crawl database and loads it
// into memory, so cfg.DataDir must be empty for it.
func LoadSession(cfg Config, path string) (*Engine, error) {
	st, legacy, err := readSession(path)
	if err != nil {
		return nil, fmt.Errorf("core: load session: %w", err)
	}
	var e *Engine
	switch {
	case legacy != nil && cfg.DataDir != "":
		return nil, fmt.Errorf("core: load session: %s is a version-%d session that embeds its crawl database and loads in memory only; leave Config.DataDir empty", path, st.Version)
	case legacy != nil:
		e, err = newEngine(cfg, legacy)
	case cfg.DataDir == "":
		return nil, fmt.Errorf("core: load session: %s keeps its documents in the data dir the crawl ran in; set Config.DataDir to it", path)
	default:
		e, err = New(cfg)
	}
	if err != nil {
		return nil, err
	}
	if err := e.restoreSession(st); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

// readSession decodes a session file: its state and, for versions 1 and 2,
// the store stream that follows it.
func readSession(path string) (sessionState, *store.Store, error) {
	var st sessionState
	f, err := os.Open(path)
	if err != nil {
		return st, nil, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	head, err := r.Peek(5)
	if err == nil && bytes.Equal(head[:4], sessionMagic[:]) {
		if version := head[4]; version < 2 || version > sessionVersion {
			return st, nil, fmt.Errorf("unsupported format version %d (this release reads versions 1-%d)", version, sessionVersion)
		}
		if _, err := r.Discard(5); err != nil {
			return st, nil, err
		}
	}
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return st, nil, err
	}
	if st.Version < 1 || st.Version > sessionVersion {
		return st, nil, fmt.Errorf("unsupported version %d", st.Version)
	}
	if st.Version == sessionVersion {
		return st, nil, nil
	}
	legacy, err := store.Decode(r)
	return st, legacy, err
}

// restoreSession installs a saved state into the default tenant: training
// set, seeds, phase and frontier; it primes the duplicate detector from
// the store and retrains the classifier.
func (e *Engine) restoreSession(st sessionState) error {
	def := e.def
	def.mu.Lock()
	for topic, docs := range st.Training {
		if _, ok := def.tree.Lookup(topic); !ok {
			def.mu.Unlock()
			return fmt.Errorf("core: load session: topic %s not in configured tree", topic)
		}
		for _, d := range docs {
			def.training.Add(topic, loadDoc(d))
		}
	}
	for _, d := range st.Others {
		def.training.Others = append(def.training.Others, loadDoc(d))
	}
	def.seedTopics = st.SeedTopics
	def.phase = st.Phase
	def.mu.Unlock()

	// Restore the crawl frontier (version-1 states carry an empty dump, so
	// this is a no-op for them and resuming re-seeds from hubs as before).
	def.frontier.Restore(st.Frontier)

	// Prime the duplicate detector so resumed crawling skips stored pages.
	// Only the default tenant's rows count: another portal having fetched a
	// URL must not stop a resumed default-tenant crawl from fetching it.
	e.store.VisitDocs(func(d store.Document) bool {
		if d.Tenant != "" {
			return true
		}
		def.fetcher.Dedup.SeenURL(d.URL)
		if d.FinalURL != "" && d.FinalURL != d.URL {
			def.fetcher.Dedup.SeenURL(d.FinalURL)
		}
		return true
	})
	if err := def.retrain(); err != nil {
		return err
	}
	// retrain bumped the counter by one; fold in the history.
	def.mu.Lock()
	def.retrains += st.Retrains
	def.mu.Unlock()
	return nil
}
