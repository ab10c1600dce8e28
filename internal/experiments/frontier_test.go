package experiments

import (
	"encoding/json"
	"os"
	"testing"

	"github.com/bingo-search/bingo/internal/corpus"
	"github.com/bingo-search/bingo/internal/frontier"
)

// TestFrontierSchedulerSmoke is the CI leg of the scheduling lab: every
// scheduler must complete a budgeted crawl of the tiny world, store pages,
// and link-context must harvest strictly better than the fifo-priority
// default. Deterministic (one worker, fault-free), so a pass is stable.
func TestFrontierSchedulerSmoke(t *testing.T) {
	w := corpus.Generate(corpus.TinyConfig())
	cells, report, err := FrontierRace(w, 150, []string{"off"}, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", report)
	if len(cells) != len(frontier.SchedulerNames()) {
		t.Fatalf("got %d cells, want one per scheduler (%d)", len(cells), len(frontier.SchedulerNames()))
	}
	harvest := map[string]float64{}
	for _, c := range cells {
		if c.Visited == 0 || c.Stored == 0 {
			t.Errorf("%s: crawl went nowhere: %+v", c.Scheduler, c)
		}
		harvest[c.Scheduler] = c.Harvest
	}
	if harvest[frontier.SchedulerLinkContext] <= harvest[frontier.SchedulerFIFOPriority] {
		t.Errorf("link-context harvest %.3f not above fifo baseline %.3f",
			harvest[frontier.SchedulerLinkContext], harvest[frontier.SchedulerFIFOPriority])
	}
}

// TestFrontierSpillSmoke: the budgeted frontier must cap its in-memory
// share while the unbounded one grows past it, at no harvest cost on a
// fault-free deterministic crawl.
func TestFrontierSpillSmoke(t *testing.T) {
	w := corpus.Generate(corpus.TinyConfig())
	rep, err := FrontierSpillEvidence(w, 150, 64)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("spill evidence: %+v", rep)
	if rep.PeakBounded > rep.FrontierBudget {
		t.Errorf("bounded frontier peaked at %d links in memory, budget %d", rep.PeakBounded, rep.FrontierBudget)
	}
	if rep.PeakUnbounded <= rep.FrontierBudget {
		t.Errorf("unbounded frontier peaked at %d, expected growth past the %d budget",
			rep.PeakUnbounded, rep.FrontierBudget)
	}
	if rep.SpilledPeak == 0 {
		t.Error("bounded run never spilled")
	}
	if rep.HarvestDelta != 0 {
		t.Errorf("spill changed the harvest ratio by %+.3f on a deterministic crawl", rep.HarvestDelta)
	}
}

// TestWriteFrontierBenchJSON is the full race: every scheduler × three
// chaos profiles × three seeds on the small world, plus the frontier-memory
// evidence. Opt-in via BENCH_JSON (the Makefile bench-frontier target);
// the markdown table it logs is the source of the EXPERIMENTS.md section.
func TestWriteFrontierBenchJSON(t *testing.T) {
	out := os.Getenv("BENCH_JSON")
	if out == "" {
		t.Skip("set BENCH_JSON=<output path> to run the frontier scheduling race")
	}
	w := corpus.Generate(corpus.SmallConfig())
	const budget = 400
	cells, report, err := FrontierRace(w, budget,
		[]string{"off", "default", "flaky"}, []int64{1, 7, 23})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", report)

	spill, err := FrontierSpillEvidence(w, budget, 256)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("spill evidence: %+v", spill)
	if spill.PeakBounded > spill.FrontierBudget {
		t.Errorf("bounded frontier peaked at %d links, budget %d", spill.PeakBounded, spill.FrontierBudget)
	}

	doc := struct {
		Benchmark string              `json:"benchmark"`
		World     string              `json:"world"`
		Budget    int64               `json:"page_budget"`
		Cells     []FrontierCell      `json:"cells"`
		Spill     FrontierSpillReport `json:"spill_evidence"`
		Table     string              `json:"table_markdown"`
	}{
		Benchmark: "frontier scheduling race: harvest ratio per ordering policy under chaos",
		World:     "small",
		Budget:    budget,
		Cells:     cells,
		Spill:     spill,
		Table:     report,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}
