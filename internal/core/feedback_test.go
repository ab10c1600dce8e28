package core

import (
	"context"
	"testing"

	"github.com/bingo-search/bingo/internal/classify"
	"github.com/bingo-search/bingo/internal/features"
)

func TestPeriodicRetrainingDuringLearning(t *testing.T) {
	e, _ := newTestEngine(t, func(c *Config) {
		c.RetrainEvery = 10
		c.RetrainConfidence = 0.0
		c.LearnBudget = 120
	})
	ctx := context.Background()
	if err := e.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	st, err := e.Learn(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// bootstrap retrain (1) + at least one intermediate + final
	if e.Retrains() < 3 {
		t.Errorf("retrains = %d, want >= 3 with periodic retraining", e.Retrains())
	}
	// A retrain pause cancels the crawl mid-page; the pages in flight must
	// still be booked and the rest of the frontier must survive the pause.
	if st.StoredPages+st.Duplicates+st.Errors != st.VisitedURLs {
		t.Errorf("pages lost across retrain pauses: stored %d + duplicates %d + errors %d != visited %d",
			st.StoredPages, st.Duplicates, st.Errors, st.VisitedURLs)
	}
}

func TestPeriodicRetrainingDisabledByDefault(t *testing.T) {
	e, _ := newTestEngine(t, func(c *Config) { c.LearnBudget = 120 })
	ctx := context.Background()
	if err := e.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Learn(ctx); err != nil {
		t.Fatal(err)
	}
	if e.Retrains() != 2 { // bootstrap + end-of-learning
		t.Errorf("retrains = %d, want 2", e.Retrains())
	}
}

func TestAddTrainingText(t *testing.T) {
	e, _ := newTestEngine(t, nil)
	ctx := context.Background()
	if err := e.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	before := e.TrainingSize()
	// virtual document derived from query terms (expert-search bootstrap)
	e.AddTrainingText("ROOT/databases", "query:aries",
		"aries recovery algorithm write ahead logging transaction rollback")
	if e.TrainingSize() != before+1 {
		t.Fatalf("training size = %d", e.TrainingSize())
	}
	if err := e.Retrain(); err != nil {
		t.Fatal(err)
	}
	// the virtual doc participates: removing it works too
	e.RemoveTrainingDoc("query:aries")
	if e.TrainingSize() != before {
		t.Fatalf("after remove = %d", e.TrainingSize())
	}
}

func TestReclassifyAll(t *testing.T) {
	e, _ := newTestEngine(t, nil)
	ctx := context.Background()
	if err := e.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Learn(ctx); err != nil {
		t.Fatal(err)
	}
	// sanity: reclassification is callable and consistent — a second pass
	// with the same model changes nothing
	_ = e.ReclassifyAll()
	if again := e.ReclassifyAll(); again != 0 {
		t.Errorf("second reclassification changed %d docs", again)
	}
	// every non-training doc now carries the current model's assignment
	cls := e.Classifier()
	for _, d := range e.Store().All() {
		if d.IsTraining {
			continue
		}
		res := cls.ClassifyWithMode(classify.Doc{ID: d.URL,
			Input: docInputForTest(e, d.Title+" "+d.Text, d.URL)}, e.def.meta)
		if res.Topic != d.Topic {
			t.Errorf("stale assignment for %s: %s vs %s", d.URL, d.Topic, res.Topic)
			break
		}
	}
}

func TestReclassifyAllBeforeBootstrap(t *testing.T) {
	e, _ := newTestEngine(t, nil)
	if n := e.ReclassifyAll(); n != 0 {
		t.Errorf("ReclassifyAll without classifier = %d", n)
	}
}

// docInputForTest mirrors the engine's document preparation.
func docInputForTest(e *Engine, text, url string) features.DocInput {
	return features.DocInput{Stems: e.pipe.Stems(text), Anchors: e.store.InAnchors(url)}
}

func TestArchetypeReviewHook(t *testing.T) {
	var proposed []ArchetypeCandidate
	e, _ := newTestEngine(t, func(c *Config) {
		c.ReviewArchetypes = func(topic string, cands []ArchetypeCandidate) []ArchetypeCandidate {
			proposed = append(proposed, cands...)
			// the user rejects everything
			return nil
		}
	})
	ctx := context.Background()
	if err := e.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	before := e.TrainingSize()
	if _, err := e.Learn(ctx); err != nil {
		t.Fatal(err)
	}
	if len(proposed) == 0 {
		t.Fatal("review hook never consulted")
	}
	if e.TrainingSize() != before {
		t.Errorf("rejected archetypes still promoted: %d -> %d", before, e.TrainingSize())
	}
	for _, c := range proposed {
		if c.URL == "" || c.Confidence <= 0 {
			t.Errorf("bad candidate: %+v", c)
		}
	}
}
