# ACT build/verify entry points. Stdlib-only Go module; everything here is
# a thin, documented wrapper so CI and humans run the same commands.

GO ?= go
GOFMT ?= gofmt

.PHONY: all build test verify verify-extended verify-conform verify-cluster verify-chaos verify-crash cover bench bench-cache bench-fleet bench-batch bench-export bench-script bench-sweep bench-cluster loc run-actd clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1 verification: what must stay green on every commit. perfbench/
# is a module of its own (built against this tree through its replace
# directive), so it is vetted from inside it: a change to a package the
# benchmark replays fails here, not in the benchmark run. gofmt -l lists
# every file whose layout drifts from gofmt's; any listing fails. sh -n
# parses every script, so a syntax slip fails here, not in a bench run.
verify: build
	@drift="$$($(GOFMT) -l .)"; if [ -n "$$drift" ]; then echo "gofmt drift:"; echo "$$drift"; exit 1; fi
	@for f in scripts/*.sh; do sh -n "$$f" || exit 1; done
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...
	$(GO) test ./...

# Extended verification: race detector across the concurrent paths
# (sweep pool, footprint cache, graceful drain), the telemetry exporter
# hammered twice (scheduler, failover, backpressure drops), then the
# full-size cross-surface conformance run and the model-layer coverage
# floor.
verify-extended: verify
	$(GO) test -race ./...
	$(GO) test -race -count=2 ./internal/export/
	$(MAKE) verify-conform
	$(MAKE) verify-cluster
	$(MAKE) verify-crash
	$(MAKE) cover

# Cross-surface conformance at acceptance size: a 1000-scenario seeded
# corpus (plus committed repros) evaluated through every surface —
# direct library, wire round trip, actd single and batch HTTP, the
# columnar batch engine, the sandboxed script interpreter, the fleet
# refold, plus the 3-node cluster scatter-gather — asserting
# byte-identical result documents, under the race detector. Custom
# test-binary flags must follow the package path.
verify-conform:
	$(GO) test -race ./internal/conform/ -run TestConformCorpus -conform.n 1000 -conform.mutants 200

# Cluster conformance at acceptance size: the full cluster test suite,
# then a 3-node in-process cluster refolding the 1000-scenario corpus
# byte-identically against the single-node oracle — including the 2PC
# recompute, the partial-quorum envelope and a snapshot-shipped node
# replacement — under the race detector.
verify-cluster:
	$(GO) test -race ./internal/cluster/
	$(GO) test -race ./internal/conform/ -run TestClusterConformance -conform.n 1000

# Coverage floor on the conformance harness and the wire layer it leans
# on: the harness only protects what it executes, so its own coverage
# regressing is a conformance gap, not a style nit. The cluster and
# fleet floors pin the scatter-gather layer and the registry it folds;
# the export and dse floors pin the telemetry pipeline and the Pareto
# frontier core that /v1/sweep and script pareto() share.
cover:
	./scripts/coverfloor.sh ./internal/conform 80
	./scripts/coverfloor.sh ./internal/scenario 85
	./scripts/coverfloor.sh ./internal/colbatch 85
	./scripts/coverfloor.sh ./internal/script 85
	./scripts/coverfloor.sh ./internal/cluster 85
	./scripts/coverfloor.sh ./internal/fleet 83
	./scripts/coverfloor.sh ./internal/export 73
	./scripts/coverfloor.sh ./internal/dse 95

# Chaos verification: rebuild with the faultinject tag (hooks compiled in)
# and run everything — including the seeded fault storm against a live
# actd (now with /v1/script traffic and the script.eval site) and the
# fleet shard/snapshot chaos suite — under the race detector, then give
# each fuzzer a short budget beyond its committed seed corpus: the fleet
# ingest stream, both wire-envelope fuzzers, the three fast-decoder
# differentials (single scenario, batch, fleet device line) that hold the
# hand-written decoder to encoding/json, the fleet top-K differential
# (random upserts, removes, recomputes and restores, with the bounded
# per-shard selection held to a sort-everything oracle for a random k),
# the script interpreter's parse/eval pair (the eval fuzzer runs
# whole adversarial programs under tight budgets and must terminate
# without panics or hangs), the script lexer held to its pre-tuning
# oracle (tokens, positions and error texts), the JSON scalar
# appenders every result document and script envelope is written with,
# held to encoding/json, the /v1/sweep body's fast decode held to
# readJSON's encoding/json decode, and the fleet ingest framer held to
# encoding/json's stream decoder (record bytes and offsets, applied count
# and error text). Each of that fuzzer's runs ingests through fresh
# registries, so a new input's minimization is capped at 100 runs to
# leave its budget for search.
verify-chaos:
	$(GO) vet -tags faultinject ./...
	$(GO) test -race -tags faultinject ./...
	$(MAKE) verify-crash
	$(GO) test -run FuzzFleetIngestNDJSON -fuzz FuzzFleetIngestNDJSON -fuzztime 10s ./internal/fleet/
	$(GO) test -run FuzzWALSegmentReplay -fuzz FuzzWALSegmentReplay -fuzztime 10s ./internal/fleet/
	$(GO) test -run FuzzScenarioUnmarshal -fuzz FuzzScenarioUnmarshal -fuzztime 10s ./internal/scenario/
	$(GO) test -run FuzzCanonicalKey -fuzz FuzzCanonicalKey -fuzztime 10s ./internal/scenario/
	$(GO) test -run FuzzParseRequestBatch -fuzz FuzzParseRequestBatch -fuzztime 10s ./internal/scenario/
	$(GO) test -run FuzzParseDevice -fuzz FuzzParseDevice -fuzztime 10s ./internal/fleet/
	$(GO) test -run FuzzNDJSONFrame -fuzz FuzzNDJSONFrame -fuzztime 10s -fuzzminimizetime 100x ./internal/fleet/
	$(GO) test -run FuzzFleetTopK -fuzz FuzzFleetTopK -fuzztime 10s ./internal/fleet/
	$(GO) test -run FuzzScriptParse -fuzz FuzzScriptParse -fuzztime 10s ./internal/script/
	$(GO) test -run FuzzLexDifferential -fuzz FuzzLexDifferential -fuzztime 10s ./internal/script/
	$(GO) test -run FuzzScriptEval -fuzz FuzzScriptEval -fuzztime 10s ./internal/script/
	$(GO) test -run FuzzJSONScalars -fuzz FuzzJSONScalars -fuzztime 10s ./internal/report/
	$(GO) test -run FuzzSweepDecode -fuzz FuzzSweepDecode -fuzztime 10s ./internal/serve/

# Crash-consistency harness: a seeded 200+-operation trace against the
# MemFS-backed fleet store, power-cycled after every single filesystem
# operation (and again inside recovery), each time asserting the
# recovered registry refolds byte-identically to the in-memory oracle.
# Runs under the race detector with the fault-injection sites compiled
# in, so the vfs.sync/fleet.wal.rotate/fleet.compact hooks build too.
verify-crash:
	$(GO) test -race -tags faultinject -run 'TestCrash|TestStore|FuzzWALSegmentReplay' ./internal/fleet/ ./internal/vfs/

# Benchmarks. Every target is one call of scripts/bench.sh, which runs
# `go test -run '^$' -benchmem` with the target's arguments and exits with
# its status. Ratios and bounds live in the Go benchmarks themselves
# (b.ReportMetric, b.Fatal). Nothing is recorded unless BENCH=<n> is set;
# then the run is also written to BENCH_<n>.json (act-bench/1), and an
# existing file is never overwritten, e.g. `make bench-script BENCH=18`.
BENCH ?=
BENCHSH = GO=$(GO) ./scripts/bench.sh "$(BENCH)"

bench:
	$(BENCHSH) -bench . ./...

# The service-cache acceptance pair: a single-object request's evaluation
# (a one-element batch through the columnar path), cached vs cold; cached
# must be >=10x cheaper (read from the two ns/op, not asserted).
bench-cache:
	$(BENCHSH) -bench 'Footprint(Cold|Cached)' ./internal/serve/

# Fleet benchmarks: builds a one-million-device registry and reports the
# summary, grouped summary and top-K costs beside per-device ingest, and
# ingest time and heap per device for shared, unique and respelled BoMs
# (BenchmarkFleetIngestBoMs), plus a full reprice (FleetRecompute, seconds
# per op), and the replace body perfbench's fleet workload sends through
# the whole ingest handler (BenchmarkFleetIngestHandler, per body). It
# asserts nothing: the <10ms summary bound is read from its output. The
# summary's zero allocations are asserted in tier-1 by
# TestSummaryZeroAllocs. Recorded as BENCH_26.json (ingest).
bench-fleet:
	$(BENCHSH) -bench 'Fleet(Ingest|Summary|SummaryGrouped|TopK|Recompute)' ./internal/fleet/ ./internal/serve/

# The columnar engine: BenchmarkColBatchEvalCorpus times the traffic
# perfbench sends (distinct 256-scenario corpus batches); EvalSweep and
# Eval time copies of one scenario and report speedup_vs_baseline against
# the frozen scalar cold baseline (colbatch.PreColumnarColdNS). Its >=10x
# figure came from those copies while the encoder memoized repeated
# values; with every value written directly it reads lower there while
# the corpus batches got faster. Nothing asserts it. FootprintCold times
# a single-object request, a one-element columnar batch, beside the
# 512-scenario batch.
bench-batch:
	$(BENCHSH) -bench 'ColBatch|Footprint(Cold|BatchColumnar)' ./internal/colbatch/ ./internal/serve/

# Exporter acceptance: the million-device telemetry tick (lines/s, payload
# size, end-to-end flush latency and its interval_headroom against the
# exporter's default push interval). Recorded as BENCH_7.json.
bench-export:
	$(BENCHSH) -bench 'Export(Emit|Flush)1M' -benchtime 10x -timeout 600s ./internal/export/

# Scripting sandbox overhead: the 1000-scenario sweep priced through a
# script program, reporting script_overhead_x against the direct colbatch
# path, and the program perfbench's design workload sends (200 corpus
# scenarios as literals, one footprint() call, a fold) without HTTP.
# Recorded as BENCH_9.json and BENCH_22.json.
bench-script:
	$(BENCHSH) -bench 'Sweep1k$$|Corpus200$$' ./internal/script/

# The /v1/sweep request perfbench's design workload sends (1000
# candidates, every Table 2 ranking, a 3-axis Pareto frontier) through the
# whole handler, beside metrics.Rank alone over the same candidate count
# under all six metrics. Recorded as BENCH_25.json.
bench-sweep:
	$(BENCHSH) -bench 'SweepHandler$$|Rank1000$$' ./internal/serve/ ./internal/metrics/

# Cluster acceptance: the 1M-device scatter-gather summary on a 3-member
# in-process cluster versus the same fleet on one node (setup takes about
# a minute). BenchmarkClusterVsSingle1M fails, and so does this target,
# when cluster_vs_single exceeds 10. Recorded as BENCH_10.json.
bench-cluster:
	$(BENCHSH) -bench '1M$$' -benchtime 1000x -timeout 900s ./internal/cluster/

# Non-test Go lines per package directory, each with its change against
# BASE, then the net non-test delta every change states, e.g.
# `make loc BASE=main`. Untracked new files count; ignored ones do not.
BASE ?= HEAD
loc:
	@./scripts/loc.sh "$(BASE)"

run-actd:
	$(GO) run ./cmd/actd -addr :8080

clean:
	$(GO) clean ./...
