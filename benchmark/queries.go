package main

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"

	"github.com/bingo-search/bingo/internal/search"
	"github.com/bingo-search/bingo/internal/serve"
	"github.com/bingo-search/bingo/internal/store"
)

// queryPool is a set of distinct /search query strings and the canonical
// search.Query each one parses to.
type queryPool struct {
	strs    []string
	queries []search.Query
}

// buildQueryPool draws n distinct queries from the corpus vocabulary with a
// seeded generator: one to three terms, plain, exact, topic-restricted,
// re-weighted and phrase queries. Terms are words of the stored pages' text
// that occur in at least three pages, so most queries have answers.
func buildQueryPool(st *store.Store, seed int64, n int) (*queryPool, error) {
	var texts []string
	for _, d := range st.All() { // hydrated: cold documents carry their text
		texts = append(texts, d.Text)
	}
	return poolFromTexts(texts, st.Topics(), seed, n)
}

// poolFromTexts builds the pool from page texts and the topic paths the
// topic-restricted queries use.
func poolFromTexts(all []string, topics []string, seed int64, n int) (*queryPool, error) {
	df := map[string]int{}
	var texts []string
	for _, text := range all {
		words := words(text)
		if len(words) >= 2 {
			texts = append(texts, text)
		}
		seen := map[string]bool{}
		for _, w := range words {
			if !seen[w] {
				seen[w] = true
				df[w]++
			}
		}
	}
	var vocab []string
	for w, n := range df {
		if n >= 3 {
			vocab = append(vocab, w)
		}
	}
	if len(vocab) < 50 || len(texts) == 0 {
		return nil, fmt.Errorf("query pool: corpus too small (%d terms, %d texts)", len(vocab), len(texts))
	}
	sort.Strings(vocab)
	sort.Strings(texts)
	topics = append([]string(nil), topics...)
	sort.Strings(topics)

	rng := rand.New(rand.NewSource(seed))
	terms := func(k int) string {
		ts := make([]string, k)
		for i := range ts {
			ts[i] = vocab[rng.Intn(len(vocab))]
		}
		return strings.Join(ts, " ")
	}
	p := &queryPool{}
	seen := map[string]bool{}
	for attempts := 0; len(p.strs) < n && attempts < 20*n; attempts++ {
		v := url.Values{}
		switch attempts % 5 {
		case 0: // plain
			v.Set("q", terms(1+rng.Intn(3)))
		case 1: // every term required
			v.Set("q", terms(2+rng.Intn(2)))
			v.Set("exact", "1")
		case 2: // restricted to one topic subtree
			v.Set("q", terms(1+rng.Intn(2)))
			v.Set("topic", topics[rng.Intn(len(topics))])
		case 3: // re-weighted ranking
			v.Set("q", terms(1+rng.Intn(3)))
			v.Set("wcos", fmt.Sprint(0.2+0.1*float64(rng.Intn(7))))
			v.Set("wconf", fmt.Sprint(0.1*float64(1+rng.Intn(4))))
			v.Set("wauth", fmt.Sprint(0.1*float64(1+rng.Intn(4))))
		case 4: // a phrase lifted from a stored page, plus a term
			ws := words(texts[rng.Intn(len(texts))])
			i := rng.Intn(len(ws) - 1)
			v.Set("q", `"`+ws[i]+" "+ws[i+1]+`" `+terms(1))
		}
		qs := v.Encode()
		if seen[qs] {
			continue
		}
		seen[qs] = true
		q, msg, ok := serve.ParseQuery(httptest.NewRequest("GET", "/search?"+qs, nil), 100)
		if !ok {
			return nil, fmt.Errorf("query pool: %q: %s", qs, msg)
		}
		p.strs = append(p.strs, qs)
		p.queries = append(p.queries, q)
	}
	if len(p.strs) < n {
		return nil, fmt.Errorf("query pool: only %d distinct queries of %d", len(p.strs), n)
	}
	return p, nil
}

// zipfDraws is a seeded Zipf sequence of pool indices: a few queries are
// hot, most of the pool is a long tail that misses the result cache.
func zipfDraws(seed int64, poolSize, n int, s float64) []int {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, s, 1, uint64(poolSize-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// words splits page text into lower-case alphabetic words of 4+ letters.
func words(text string) []string {
	ws := strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return r < 'a' || r > 'z'
	})
	out := ws[:0]
	for _, w := range ws {
		if len(w) >= 4 {
			out = append(out, w)
		}
	}
	return out
}
