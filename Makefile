# Developer entry points. The repo's end-to-end benchmark is
# `bash benchmark/run.sh` (see benchmark/README.md); the targets below
# regenerate the older per-subsystem records. `make bench-overhead`
# regenerates BENCH_overhead.json, the record of the metrics layer's
# per-event cost; `make bench-shard` regenerates BENCH_shard.json, the
# record of the partitioned store's dirty-shard rebuild economy under mixed
# load; `make bench-serve` regenerates BENCH_serve.json, the record of the
# serving path's epoch-keyed result-cache speedup under open-loop load;
# `make bench-segments` regenerates BENCH_segments.json, the record of the
# disk-native segment tier's heap economy, cold-start latency, and write
# amplification; `make bench-frontier` regenerates BENCH_frontier.json, the
# frontier-scheduler harvest-ratio race; `make smoke` boots portald and
# drives a loadgen burst end to end, then kill -9s a tiered crawl, verifies
# WAL recovery, and queries the recovered data dir with bingosearch -db.

GO ?= go

.PHONY: all build vet fmt-check test race chaos smoke smoke-dist smoke-tenant doccheck bench-overhead bench-shard bench-serve bench-segments bench-frontier smoke-frontier

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt-check fails when any file deviates from gofmt (listing the offenders).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test: vet fmt-check
	$(GO) test ./...

# The crawl execution path and the query read path are heavily concurrent
# (worker pool, sharded store, frontier lease protocol, snapshot swaps,
# parallel HITS sweeps); race runs the packages that exercise them, plus the
# lock-free metrics primitives they all report into.
race:
	$(GO) test -race ./internal/crawler/... ./internal/store/... ./internal/segment/... ./internal/frontier/... ./internal/search/... ./internal/hits/... ./internal/metrics/... ./internal/serve/... ./internal/servecache/... ./internal/admit/... ./internal/loadgen/... ./internal/rpc/... ./internal/coord/...
	$(GO) test -race -count=1 -run 'TestFrontier' ./internal/experiments/
	$(GO) test -race -count=1 -run 'Tenant|Train|Close' ./internal/core/

# chaos runs the fault-injection suite (full crawls against the seeded fault
# plane, plus the faults/fetch resilience units) across a fixed seed matrix
# under the race detector. It is deliberately NOT part of `test`: tier-1
# stays fast, and `test` already runs the suite once at its default seed.
CHAOS_SEEDS ?= 1,7,23
chaos:
	CHAOS_SEEDS="$(CHAOS_SEEDS)" $(GO) test -race -count=1 -run 'TestChaos' ./internal/crawler/
	$(GO) test -race -count=1 ./internal/faults/ ./internal/fetch/

# bench-shard reports mixed write/query throughput for the sharded (P=8)
# vs single-shard (P=1) store on the same commit, then records an
# interleaved A/B comparison — including docs rebuilt per localized write,
# the dirty-shard economy headline — in BENCH_shard.json.
bench-shard:
	$(GO) test -run '^$$' -bench 'BenchmarkShardChurn' -benchtime 1s -benchmem .
	BENCH_JSON=BENCH_shard.json $(GO) test -run TestWriteShardBenchJSON -v .

# bench-serve reports requests/sec through the serving handler with the
# result cache on vs off, then records the full open-loop rate sweep —
# max sustained QPS under the p99 SLO for both configs, their ratio, and
# the bit-identical-results equivalence gate — in BENCH_serve.json.
bench-serve:
	$(GO) test -run '^$$' -bench 'BenchmarkServeQPS' -benchtime 1s -benchmem .
	BENCH_JSON=BENCH_serve.json $(GO) test -run TestWriteServeBenchJSON -v .

# smoke is the end-to-end serving check CI runs on every push: build
# portald + loadgen, crawl a tiny world, serve on an ephemeral port, drive
# an open-loop burst (every response must be 2xx or a 429 shed), then
# SIGTERM and require a graceful drain with exit 0.
smoke:
	sh scripts/smoke.sh

# smoke-dist is the distributed end-to-end check: boot two shardd shard
# servers and a portald coordinator that mirrors a tiny-world crawl into
# them, kill -9 one shard mid-crawl (the crawl must finish and /search
# must answer degraded partials, never a 5xx storm), restart it over the
# same WAL (every acknowledged document must be recovered and the fleet
# must return to non-degraded answers), then SIGTERM everything cleanly.
smoke-dist:
	sh scripts/smoke_dist.sh

# smoke-tenant is the multi-portal end-to-end check: boot portald hosting
# two tenants over one shared store with the background retrainer swapping
# ensembles mid-crawl, assert zero cross-tenant leakage on /search, live
# per-tenant stats on /tenants, retrain counters advancing while serving,
# and that a single-tenant run still speaks the pre-tenancy wire format.
smoke-tenant:
	sh scripts/smoke_tenant.sh

# doccheck fails when any exported identifier in the wire-protocol,
# coordinator, store or engine packages lacks a godoc comment — the
# distributed API and the persistence API are the documented operational
# surface, so undocumented API is a build break.
doccheck:
	$(GO) run ./cmd/doccheck internal/rpc internal/coord internal/store internal/core

# bench-segments reports cold-start latency for the segment tier, then
# records the tiered-vs-in-memory evidence — corpus held per heap byte,
# cold-start latency, write amplification, on-disk compression, and the
# read-API equivalence gate — in BENCH_segments.json. Not part of CI.
bench-segments:
	$(GO) test -run '^$$' -bench 'BenchmarkTieredColdStart' -benchtime 3x ./internal/store
	BENCH_JSON=$(CURDIR)/BENCH_segments.json $(GO) test -run TestWriteSegmentsBenchJSON -v -timeout 600s -count=1 ./internal/store

# bench-frontier runs the frontier scheduling race — every crawl-ordering
# policy × chaos profile × seed on the small world at a fixed page budget —
# and records the harvest-ratio table plus the frontier-memory spill
# evidence in BENCH_frontier.json. Not part of CI (CI runs smoke-frontier).
bench-frontier:
	BENCH_JSON=$(CURDIR)/BENCH_frontier.json $(GO) test -run TestWriteFrontierBenchJSON -v -timeout 600s -count=1 ./internal/experiments/

# smoke-frontier is the CI leg of the scheduling lab: every scheduler
# completes a tiny-world crawl, link-context harvests strictly more than the
# fifo-priority default, and a budgeted frontier caps its in-memory share.
smoke-frontier:
	$(GO) test -run 'TestFrontierSchedulerSmoke|TestFrontierSpillSmoke' -v -count=1 ./internal/experiments/

# bench-overhead reports the per-event cost of the instrumentation
# primitives (counter inc, histogram observe, trace append) against their
# no-op nil-handle forms, then records BENCH_overhead.json.
bench-overhead:
	$(GO) test -run '^$$' -bench 'BenchmarkMetricsOverhead' -benchmem ./internal/metrics
	BENCH_JSON=$(CURDIR)/BENCH_overhead.json $(GO) test -run TestWriteOverheadBenchJSON -v ./internal/metrics
