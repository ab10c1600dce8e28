// Command benchmark runs the portal's benchmark workloads on the synthetic
// world and prints their metrics. See README.md for the workloads, the
// metrics and how to read a traced run.
//
//	bash benchmark/run.sh --workload crawl --seed 1 --seconds 15 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one named number with its unit and the number of samples it
// summarises.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"samples"`
}

// result is one workload run.
type result struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Traced    bool   `json:"traced"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	// Gates lists every correctness gate that failed; empty means correct.
	Gates []string `json:"failed_gates"`
	// EndToEnd holds the metrics the benchmark gates, by name; Detail holds
	// every other end-to-end number of the run under the names the metric
	// glossary uses; Layers holds the traced run's per-layer metrics.
	EndToEnd []metric `json:"end_to_end"`
	Detail   []metric `json:"detail"`
	Layers   []metric `json:"per_layer"`
	// LayerTimes are the traced run's per-span-name totals and self times.
	LayerTimes []layerTime `json:"layer_times,omitempty"`
	Provenance provenance  `json:"provenance"`
	Notes      []string    `json:"notes,omitempty"`
	wall       time.Duration
}

func (r *result) gate(err error) {
	if err != nil {
		r.Gates = append(r.Gates, err.Error())
	}
}

func (r *result) e2e(name, unit string, v float64, n int) {
	r.EndToEnd = append(r.EndToEnd, metric{name, unit, v, n})
}

func (r *result) detail(name, unit string, v float64, n int) {
	r.Detail = append(r.Detail, metric{name, unit, v, n})
}

// layer records a per-layer metric; the first measurement of a name wins,
// so a workload's own load takes precedence over a probe.
func (r *result) layer(name, unit string, v float64, n int) {
	if !r.hasLayer(name) {
		r.Layers = append(r.Layers, metric{name, unit, v, n})
	}
}

func (r *result) hasLayer(name string) bool {
	for _, m := range r.Layers {
		if m.Name == name {
			return true
		}
	}
	return false
}

// runCfg is what every workload receives.
type runCfg struct {
	seed    int64
	seconds time.Duration
	trace   bool
	work    string // scratch directory under the output directory
}

var workloads = map[string]func(context.Context, runCfg, *result) error{
	"crawl":       runCrawl,
	"crawl-serve": runCrawlServe,
	"serve":       runServe,
	"serve-dist":  runServeDist,
}

func main() {
	name := flag.String("workload", "", "workload: crawl, crawl-serve, serve or serve-dist")
	seed := flag.Int64("seed", 1, "workload seed: world, crawl seeds and query mix derive from it")
	seconds := flag.Int("seconds", 15, "how long the timed phase of the run lasts")
	trace := flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	outDir := flag.String("out", ".bench_build", "directory for results, traces and scratch data")
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: --workload {crawl|crawl-serve|serve|serve-dist} --seed N --seconds N --trace {0|1}\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	work, err := os.MkdirTemp(*outDir, "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := runCfg{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, work: work}
	res := &result{Workload: *name, Seed: *seed, Traced: cfg.trace, Gates: []string{}, Provenance: stamp(*seed)}
	start := time.Now()
	err = fn(context.Background(), cfg, res)
	res.wall = time.Since(start)
	os.RemoveAll(work)
	if err != nil {
		// An operation failed outright: report it as a failed gate so the
		// run is marked incorrect rather than silently short.
		res.gate(err)
	}
	report(res, *outDir)
	if len(res.Gates) > 0 {
		os.Exit(1)
	}
}

// report prints every metric by name with its unit and sample count, saves
// the full record, and ends with the one-line JSON summary.
func report(r *result, outDir string) {
	fmt.Printf("workload %s  seed %d  traced %v  wall %.1fs\n", r.Workload, r.Seed, r.Traced, r.wall.Seconds())
	p := r.Provenance
	fmt.Printf("provenance: commit %s dirty %v  %s  GOMAXPROCS %d nproc %d  cpu %q  kernel %s\n",
		p.Commit, p.Dirty, p.GoVersion, p.GOMAXPROCS, p.NumCPU, p.CPUModel, p.Kernel)
	section := func(title string, ms []metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Println(title)
		for _, m := range ms {
			fmt.Printf("  %-34s %14s %-12s n=%d\n", m.Name, fmtValue(m.Value), m.Unit, m.N)
		}
	}
	section("end-to-end (gated):", r.EndToEnd)
	section("end-to-end (glossary names):", r.Detail)
	section("per-layer:", r.Layers)
	if len(r.LayerTimes) > 0 {
		fmt.Println("trace: span totals and self time")
		for _, lt := range r.LayerTimes {
			fmt.Printf("  %-34s count %8d  total %12.1f ms  self %12.1f ms\n", lt.Name, lt.Count, lt.TotalMS, lt.SelfMS)
		}
	}
	for _, n := range r.Notes {
		fmt.Println("note:", n)
	}
	for _, g := range r.Gates {
		fmt.Println("FAILED GATE:", g)
	}
	if b, err := json.MarshalIndent(r, "", "  "); err == nil {
		dir := filepath.Join(outDir, "results")
		if os.MkdirAll(dir, 0o755) == nil {
			path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%v.json", r.Workload, r.Seed, r.Traced))
			if err := os.WriteFile(path, b, 0o644); err == nil {
				fmt.Println("record:", path)
			}
		}
	}
	ms := r.EndToEnd
	if r.Traced {
		ms = r.Layers
	}
	out := map[string]any{}
	for _, m := range ms {
		out[m.Name] = map[string]any{"value": jsonNumber(m.Value), "unit": m.Unit}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   len(r.Gates) == 0,
		"attempted": attempted,
		"failed":    r.Failed,
		"metrics":   out,
	})
	fmt.Println(string(line))
}

// jsonNumber keeps a non-finite value encodable: +Inf (a percentile made of
// failed requests) is reported as the largest float.
func jsonNumber(v float64) float64 {
	switch {
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	case math.IsNaN(v):
		return 0
	}
	return v
}

func fmtValue(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	if v != 0 && (math.Abs(v) >= 1e6 || math.Abs(v) < 1e-3) {
		return fmt.Sprintf("%.4g", v)
	}
	return fmt.Sprintf("%.4f", v)
}

// sortedMetrics orders metrics by name (stable output for diffs).
func sortedMetrics(ms []metric) {
	sort.Slice(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
}

func itoa(n int64) string { return fmt.Sprint(n) }

func mkdirFor(path string) error { return os.MkdirAll(filepath.Dir(path), 0o755) }

// tailDetail records the highest reportable percentile of latencies given
// in seconds, as prefix_pNN_ms.
func tailDetail(r *result, prefix string, latencies []float64) {
	if name, v, ok := tailPercentile(latencies); ok {
		r.detail(prefix+"_"+name+"_ms", "ms", v*1e3, len(latencies))
	}
}
