# ACT build/verify entry points. Stdlib-only Go module; everything here is
# a thin, documented wrapper so CI and humans run the same commands.

GO ?= go
GOFMT ?= gofmt

.PHONY: all build test verify verify-extended verify-conform verify-cluster verify-chaos verify-crash cover bench bench-cache bench-fleet bench-batch bench-json bench-export bench-script bench-cluster run-actd clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1 verification: what must stay green on every commit. perfbench/
# is a module of its own (built against this tree through its replace
# directive), so it is vetted from inside it: a change to a package the
# benchmark replays fails here, not in the benchmark run. gofmt -l lists
# every file whose layout drifts from gofmt's; any listing fails.
verify: build
	@drift="$$($(GOFMT) -l .)"; if [ -n "$$drift" ]; then echo "gofmt drift:"; echo "$$drift"; exit 1; fi
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
# fleet floors pin the scatter-gather layer and the registry it folds.
cover:
	./scripts/coverfloor.sh ./internal/conform 80
	./scripts/coverfloor.sh ./internal/scenario 85
	./scripts/coverfloor.sh ./internal/colbatch 85
	./scripts/coverfloor.sh ./internal/script 85
	./scripts/coverfloor.sh ./internal/cluster 85
	./scripts/coverfloor.sh ./internal/fleet 83

# Chaos verification: rebuild with the faultinject tag (hooks compiled in)
# and run everything — including the seeded fault storm against a live
# actd (now with /v1/script traffic and the script.eval site) and the
# fleet shard/snapshot chaos suite — under the race detector, then give
# each fuzzer a short budget beyond its committed seed corpus: the fleet
# ingest stream, both wire-envelope fuzzers, the three fast-decoder
# differentials (single scenario, batch, fleet device line) that hold the
# hand-written decoder to encoding/json, and the script interpreter's
# parse/eval pair (the eval fuzzer runs whole adversarial programs under
# tight budgets and must terminate without panics or hangs).
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
	$(GO) test -run FuzzScriptParse -fuzz FuzzScriptParse -fuzztime 10s ./internal/script/
	$(GO) test -run FuzzScriptEval -fuzz FuzzScriptEval -fuzztime 10s ./internal/script/

# Crash-consistency harness: a seeded 200+-operation trace against the
# MemFS-backed fleet store, power-cycled after every single filesystem
# operation (and again inside recovery), each time asserting the
# recovered registry refolds byte-identically to the in-memory oracle.
# Runs under the race detector with the fault-injection sites compiled
# in, so the vfs.sync/fleet.wal.rotate/fleet.compact hooks build too.
verify-crash:
	$(GO) test -race -tags faultinject -run 'TestCrash|TestStore|FuzzWALSegmentReplay' ./internal/fleet/ ./internal/vfs/

bench:
	$(GO) test -bench=. -benchmem ./...

# The service-cache acceptance pair: a single-object request's evaluation
# (a one-element batch through the columnar path), cached vs cold; cached
# must be >=10x cheaper.
bench-cache:
	$(GO) test -run XXX -bench 'Footprint(Cold|Cached)' -benchmem ./internal/serve/

# Fleet acceptance benchmarks: builds a one-million-device registry and
# pins the O(shards) summary bound (<10ms) plus ingest/top-K costs.
bench-fleet:
	$(GO) test -run XXX -bench 'Fleet(Ingest|Summary|SummaryGrouped|TopK)' -benchmem ./internal/fleet/

# The columnar-engine acceptance pair: the colbatch sweep must beat the
# frozen scalar cold baseline in scripts/bench_json.sh by >=10x per
# scenario at zero allocs. FootprintCold times a single-object request,
# now a one-element columnar batch, beside the 512-scenario batch.
bench-batch:
	$(GO) test -run XXX -bench 'ColBatch' -benchmem ./internal/colbatch/
	$(GO) test -run XXX -bench 'Footprint(Cold|BatchColumnar)' -benchmem ./internal/serve/

# Machine-readable benchmark snapshot: runs the footprint, fleet and
# columnar suites and writes BENCH_6.json at the repo root.
bench-json:
	./scripts/bench_json.sh

# Exporter acceptance snapshot: the million-device telemetry tick
# (lines/sec, payload size, end-to-end flush latency vs the 10s push
# interval), written to BENCH_7.json at the repo root.
bench-export:
	./scripts/bench_export.sh

# Scripting sandbox overhead snapshot: the same 1000-scenario sweep
# priced through a script program versus the direct colbatch path,
# written to BENCH_9.json at the repo root.
bench-script:
	./scripts/bench_script.sh

# Cluster acceptance snapshot: the 1M-device scatter-gather summary on a
# 3-member in-process cluster versus the same fleet on one node, written
# to BENCH_10.json at the repo root. Fails if cluster costs more than
# 10x single-node.
bench-cluster:
	./scripts/bench_cluster.sh

run-actd:
	$(GO) run ./cmd/actd -addr :8080

clean:
	$(GO) clean ./...
