package frontier

import (
	"sort"
	"strings"

	"github.com/bingo-search/bingo/internal/rbtree"
)

// rankEntry keeps the raw effective priority next to the item so PopWorst
// can hand the spill tier the policy-independent value it re-inserts under.
type rankEntry struct {
	it  Item
	eff float64
}

// rankScheduler is the link-context scheduler: one global red-black tree
// ordered by the link-context score (seeds first, FIFO among equal
// scores), with per-topic counts for PopTopic. Scores must be a
// deterministic function of the call sequence so same-seed crawls replay
// identically. Unlike fifo-priority there
// is no two-tier promotion step, so the DNS prefetch hook does not fire —
// the ranking scheduler trades the §4.2 DNS warm-up for a globally optimal
// pop order.
type rankScheduler struct {
	limit    int
	sc       *linkContextScorer
	tree     *rbtree.Tree[key, rankEntry]
	perTopic map[string]int
}

func newRankScheduler(limit int, sc *linkContextScorer) *rankScheduler {
	return &rankScheduler{
		limit:    limit,
		sc:       sc,
		tree:     rbtree.New[key, rankEntry](keyLess),
		perTopic: make(map[string]int),
	}
}

func (s *rankScheduler) Name() string { return SchedulerLinkContext }

func (s *rankScheduler) Push(it Item, eff float64, seq uint64) (string, bool) {
	k := key{seed: it.IsSeed, prio: s.sc.score(it, eff), seq: seq}
	if s.tree.Len() >= s.limit {
		worstKey, worst, ok := s.tree.Max()
		if !ok || !keyLess(k, worstKey) {
			return "", false
		}
		s.tree.Delete(worstKey)
		s.perTopic[worst.it.Topic]--
		s.tree.Insert(k, rankEntry{it: it, eff: eff})
		s.perTopic[it.Topic]++
		return worst.it.URL, true
	}
	s.tree.Insert(k, rankEntry{it: it, eff: eff})
	s.perTopic[it.Topic]++
	return "", true
}

// Reinsert re-scores the item: a delayed requeue or a spill refill re-enters
// the queue under the policy's current opinion of it.
func (s *rankScheduler) Reinsert(it Item, eff float64, seq uint64) {
	s.tree.Insert(key{seed: it.IsSeed, prio: s.sc.score(it, eff), seq: seq}, rankEntry{it: it, eff: eff})
	s.perTopic[it.Topic]++
}

func (s *rankScheduler) Pop() (Item, bool) {
	k, e, ok := s.tree.Min()
	if !ok {
		return Item{}, false
	}
	s.tree.Delete(k)
	s.perTopic[e.it.Topic]--
	return e.it, true
}

func (s *rankScheduler) PopTopic(topic string) (Item, bool) {
	if s.perTopic[topic] <= 0 {
		return Item{}, false
	}
	var foundKey key
	var foundIt Item
	found := false
	s.tree.Ascend(func(k key, e rankEntry) bool {
		if e.it.Topic == topic {
			foundKey, foundIt, found = k, e.it, true
			return false
		}
		return true
	})
	if !found {
		return Item{}, false
	}
	s.tree.Delete(foundKey)
	s.perTopic[topic]--
	return foundIt, true
}

func (s *rankScheduler) PopWorst() (Item, float64, uint64, bool) {
	k, e, ok := s.tree.Max()
	if !ok {
		return Item{}, 0, 0, false
	}
	s.tree.Delete(k)
	s.perTopic[e.it.Topic]--
	return e.it, e.eff, k.seq, true
}

func (s *rankScheduler) Len() int { return s.tree.Len() }

func (s *rankScheduler) TopicLen(topic string) (int, int) {
	return s.perTopic[topic], 0
}

func (s *rankScheduler) Dump(fn func(Item) bool) {
	s.tree.Ascend(func(_ key, e rankEntry) bool {
		return fn(e.it)
	})
}

// Reset drops the queue but keeps the scorer: a phase switch resumes with
// the topic-term caches the previous phase built.
func (s *rankScheduler) Reset() {
	s.tree = rbtree.New[key, rankEntry](keyLess)
	s.perTopic = make(map[string]int)
}

// linkContextScorer blends parent confidence with the similarity of the
// link's local context — anchor text plus URL tokens — to the target
// topic's feature terms (the PDD / Treasure-Crawler link-relevance idea):
// a mediocre parent pointing at "database-systems/recovery.html" outranks
// the same parent's "my favourite team" link.
type linkContextScorer struct {
	terms func(topic string) map[string]float64
	// blend weighs context similarity against parent confidence.
	blend float64
	// cache holds each topic's feature terms sorted by term; it is
	// invalidated every refresh pushes so classifier retraining (which
	// changes the feature vectors mid-crawl) is picked up without querying
	// the classifier on every push.
	cache   map[string][]termWeight
	pushes  int
	refresh int
}

type termWeight struct {
	term string
	w    float64
}

func newLinkContextScorer(terms func(string) map[string]float64) *linkContextScorer {
	return &linkContextScorer{
		terms:   terms,
		blend:   0.5,
		cache:   make(map[string][]termWeight),
		refresh: 1024,
	}
}

func (s *linkContextScorer) score(it Item, eff float64) float64 {
	if it.IsSeed {
		return eff
	}
	return (1-s.blend)*eff + s.blend*s.similarity(it)
}

func (s *linkContextScorer) similarity(it Item) float64 {
	if s.terms == nil {
		return 0
	}
	s.pushes++
	if s.pushes%s.refresh == 0 {
		clear(s.cache)
	}
	tv, ok := s.cache[it.Topic]
	if !ok {
		tv = sortedTerms(s.terms(it.Topic))
		s.cache[it.Topic] = tv
	}
	if len(tv) == 0 {
		return 0
	}
	toks := contextTokens(it.Anchor, it.URL)
	if len(toks) == 0 {
		return 0
	}
	// Sum each matched feature term's weight once (feature terms are stems,
	// so a term matching a token's prefix counts: "databas" hits
	// "databases"). The sum is over distinct terms, making it independent
	// of token order.
	raw := 0.0
	matched := make(map[string]struct{})
	for _, tok := range toks {
		for _, tw := range tv {
			if _, dup := matched[tw.term]; dup {
				continue
			}
			if tok == tw.term || strings.HasPrefix(tok, tw.term) {
				matched[tw.term] = struct{}{}
				raw += tw.w
			}
		}
	}
	return raw / (1 + raw)
}

func sortedTerms(m map[string]float64) []termWeight {
	tv := make([]termWeight, 0, len(m))
	for t, w := range m {
		if t == "" || w <= 0 {
			continue
		}
		tv = append(tv, termWeight{term: t, w: w})
	}
	sort.Slice(tv, func(i, j int) bool { return tv[i].term < tv[j].term })
	return tv
}

// contextStop drops tokens carrying no topical signal: URL scaffolding and
// generic TLD/host noise.
var contextStop = map[string]struct{}{
	"http": {}, "https": {}, "www": {}, "html": {}, "htm": {},
	"com": {}, "org": {}, "net": {}, "edu": {}, "example": {},
	"index": {}, "page": {}, "the": {}, "and": {}, "for": {},
}

// contextTokens lowercases the anchor text and URL and splits them into
// alphanumeric runs of three or more characters, minus the stoplist.
func contextTokens(anchor, url string) []string {
	var toks []string
	emit := func(s string) {
		var b strings.Builder
		flush := func() {
			if b.Len() >= 3 {
				tok := b.String()
				if _, stop := contextStop[tok]; !stop {
					toks = append(toks, tok)
				}
			}
			b.Reset()
		}
		for _, r := range s {
			switch {
			case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
				b.WriteRune(r)
			case r >= 'A' && r <= 'Z':
				b.WriteRune(r + ('a' - 'A'))
			default:
				flush()
			}
		}
		flush()
	}
	emit(anchor)
	emit(url)
	return toks
}
