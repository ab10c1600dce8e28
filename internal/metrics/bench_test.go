package metrics

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// Overhead benchmarks: the instrumented hot-path primitives against their
// no-op (nil-handle) forms. `make bench-overhead` runs these and
// TestWriteOverheadBenchJSON records the per-op costs in
// BENCH_overhead.json — the standing evidence for the observability
// layer's overhead budget (single-digit nanoseconds per event against a
// ~55µs/page crawl path, i.e. ≪1%).

func BenchmarkMetricsOverheadCounterInc(b *testing.B) {
	c := NewRegistry().Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkMetricsOverheadCounterIncNop(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkMetricsOverheadCounterIncParallel(b *testing.B) {
	c := NewRegistry().Counter("c")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkMetricsOverheadHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("h")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkMetricsOverheadHistogramObserveNop(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkMetricsOverheadHistogramObserveParallel(b *testing.B) {
	h := NewRegistry().Histogram("h")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := int64(0)
		for pb.Next() {
			h.Observe(i)
			i++
		}
	})
}

func BenchmarkMetricsOverheadTraceAppend(b *testing.B) {
	r := NewTraceRing(4096)
	e := TraceEvent{Stage: "fetch", URL: "http://h.example/p", Dur: 1500}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Append(e)
	}
}

// overheadRow is one primitive's measured cost.
type overheadRow struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

func measureOp(f func(b *testing.B)) overheadRow {
	res := testing.Benchmark(f)
	return overheadRow{
		NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
		AllocsPerOp: res.AllocsPerOp(),
	}
}

// TestWriteOverheadBenchJSON measures instrumented vs no-op primitives and
// records BENCH_overhead.json. Opt-in via BENCH_JSON=<path> (the Makefile
// `bench-overhead` target sets it).
func TestWriteOverheadBenchJSON(t *testing.T) {
	out := os.Getenv("BENCH_JSON")
	if out == "" {
		t.Skip("set BENCH_JSON=<output path> to run the overhead measurement")
	}
	report := struct {
		Benchmark         string      `json:"benchmark"`
		Timestamp         string      `json:"timestamp"`
		CounterInc        overheadRow `json:"counter_inc"`
		CounterIncNop     overheadRow `json:"counter_inc_nop"`
		CounterIncPar     overheadRow `json:"counter_inc_parallel"`
		HistObserve       overheadRow `json:"histogram_observe"`
		HistObserveNop    overheadRow `json:"histogram_observe_nop"`
		HistObservePar    overheadRow `json:"histogram_observe_parallel"`
		TraceAppend       overheadRow `json:"trace_append"`
		CrawlBudgetNsPage float64     `json:"crawl_cpu_ns_per_page_baseline"`
		Note              string      `json:"note"`
	}{
		Benchmark:      "metrics primitives, instrumented vs no-op (nil handle)",
		Timestamp:      time.Now().UTC().Format(time.RFC3339),
		CounterInc:     measureOp(BenchmarkMetricsOverheadCounterInc),
		CounterIncNop:  measureOp(BenchmarkMetricsOverheadCounterIncNop),
		CounterIncPar:  measureOp(BenchmarkMetricsOverheadCounterIncParallel),
		HistObserve:    measureOp(BenchmarkMetricsOverheadHistogramObserve),
		HistObserveNop: measureOp(BenchmarkMetricsOverheadHistogramObserveNop),
		HistObservePar: measureOp(BenchmarkMetricsOverheadHistogramObserveParallel),
		TraceAppend:    measureOp(BenchmarkMetricsOverheadTraceAppend),
		// The batched crawl path measured ≈ 18167 pages/cpu-sec → ~55µs of
		// CPU per page; the handful of per-page metric events must stay ≪2%
		// of that.
		CrawlBudgetNsPage: 55000,
		Note:              "crawl emits ~15 counter/histogram events and ~4 trace spans per page; overhead = events × ns_per_op vs the per-page CPU budget",
	}

	for name, row := range map[string]overheadRow{
		"counter_inc":       report.CounterInc,
		"histogram_observe": report.HistObserve,
	} {
		if row.AllocsPerOp != 0 {
			t.Errorf("%s allocates %d per op, want 0", name, row.AllocsPerOp)
		}
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("counter %.1fns (nop %.1fns), histogram %.1fns (nop %.1fns), trace %.1fns -> %s",
		report.CounterInc.NsPerOp, report.CounterIncNop.NsPerOp,
		report.HistObserve.NsPerOp, report.HistObserveNop.NsPerOp,
		report.TraceAppend.NsPerOp, out)
}
