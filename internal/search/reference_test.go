package search

import (
	"sort"
	"strings"

	"github.com/bingo-search/bingo/internal/hits"
	"github.com/bingo-search/bingo/internal/store"
	"github.com/bingo-search/bingo/internal/vsm"
)

// referenceEngine is the original per-candidate scorer the snapshot path
// replaced, kept as the model the equivalence tests compare against:
// candidate DocIDs from copied postings, a store.Get and an idf.Weight
// map-vector per candidate, phrase matching by re-stemming each candidate,
// and a full sort of all candidates. It caches nothing — every query
// recomputes idf over the whole store and, when authority is weighted,
// reruns HITS over the link graph — so it is correct by construction after
// any store mutation.
type referenceEngine struct {
	eng *Engine // for parseQuery and the text pipeline only
}

func newReference(s *store.Store) referenceEngine {
	return referenceEngine{eng: New(s)}
}

func (r referenceEngine) Search(q Query) []Hit {
	p, ok := r.eng.parseQuery(&q)
	if !ok {
		return nil
	}
	st := r.eng.store
	w := q.Weights

	// Candidate retrieval through the inverted index.
	counts := make(map[store.DocID]int)
	for term := range p.uniq {
		ids, _ := st.Postings(term)
		for _, id := range ids {
			counts[id]++
		}
	}
	var candidates []store.Document
	for id, n := range counts {
		if q.Exact && n < len(p.uniq) {
			continue
		}
		d, err := st.Get(id)
		if err != nil {
			continue
		}
		if d.Tenant != q.Tenant {
			continue
		}
		if !topicMatches(d.Topic, q.Topic) {
			continue
		}
		if len(p.phraseStems) > 0 && !r.matchesPhrases(d, p.phraseStems) {
			continue
		}
		candidates = append(candidates, d)
	}
	if len(candidates) == 0 {
		return nil
	}

	// Query vector in the store's idf space.
	stats := vsm.NewCorpusStats()
	for _, d := range st.All() {
		stats.AddDoc(d.Terms)
	}
	idf := stats.Snapshot()
	qv := idf.Weight(p.uniq)

	hitsList := make([]Hit, len(candidates))
	var maxCos, maxConf float64
	for i, d := range candidates {
		dv := idf.Weight(d.Terms)
		c := vsm.Cosine(qv, dv)
		hitsList[i] = Hit{Doc: d, Cosine: c, Confidence: d.Confidence}
		if c > maxCos {
			maxCos = c
		}
		if d.Confidence > maxConf {
			maxConf = d.Confidence
		}
	}

	var maxAuth float64
	if w.Authority != 0 {
		authScores := referenceAuthority(st)
		for i := range hitsList {
			a := authScores[hitsList[i].Doc.URL]
			hitsList[i].Authority = a
			if a > maxAuth {
				maxAuth = a
			}
		}
	}

	// Normalize each component to [0,1] and combine.
	for i := range hitsList {
		h := &hitsList[i]
		if maxCos > 0 {
			h.Cosine /= maxCos
		}
		if maxConf > 0 {
			h.Confidence /= maxConf
		}
		if maxAuth > 0 {
			h.Authority /= maxAuth
		}
		h.Score = w.Cosine*h.Cosine + w.Confidence*h.Confidence + w.Authority*h.Authority
	}
	sort.Slice(hitsList, func(i, j int) bool {
		if hitsList[i].Score != hitsList[j].Score {
			return hitsList[i].Score > hitsList[j].Score
		}
		return hitsList[i].Doc.URL < hitsList[j].Doc.URL
	})
	if len(hitsList) > q.Limit {
		hitsList = hitsList[:q.Limit]
	}
	return hitsList
}

// matchesPhrases reports whether every phrase occurs as a consecutive stem
// sequence in the document's text.
func (r referenceEngine) matchesPhrases(d store.Document, phrases [][]string) bool {
	docStems := r.eng.pipe.StemsParts(d.Title, d.Text)
	for _, p := range phrases {
		if !containsSeq(docStems, p) {
			return false
		}
	}
	return true
}

// referenceAuthority runs HITS over the stored link graph (§3.6).
func referenceAuthority(st *store.Store) map[string]float64 {
	g := hits.NewGraph()
	for _, l := range st.Links() {
		g.AddEdge(l.From, hostOf(l.From), l.To, hostOf(l.To))
	}
	res := g.Run(hits.DefaultOptions())
	out := make(map[string]float64, len(res.Authorities))
	for _, s := range res.Authorities {
		out[s.ID] = s.Value
	}
	return out
}

// topicMatches reports whether docTopic equals filter or lies below it.
func topicMatches(docTopic, filter string) bool {
	if filter == "" {
		return true
	}
	return docTopic == filter || strings.HasPrefix(docTopic, filter+"/")
}
