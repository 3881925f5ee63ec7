GO ?= go

.PHONY: all build vet fmt-check perfbench-check lint lint-fast test race fuzz fuzz-smoke bench bench-grid bench-serve bench-cluster allocs-gate smoke-simd smoke-cluster soak-store ci

# Required cold/warm ratio for the result store: a warm in-memory lookup
# must be at least this many times faster than a cold simulation, or the
# store is not paying for its complexity.
SERVE_MIN_SPEEDUP ?= 100

# Allocation budget for the fan-out grid engine, about twice the ~14k
# allocs/op it measures: ~0.1 allocs per simulated access would be 90k
# per op here, and per-set replacement state for every direct-mapped
# model would add ~2k per model, so 28k enforces O(batches + model
# construction), not O(accesses) or O(sets).  BenchmarkGridFanout
# replays 900k accesses per op (3 benchmarks x 300k).
GRID_ALLOC_BUDGET ?= 28000

# Throughput floor for the compiled-trace fan-out engine, in SIMULATED
# accesses per second (trace length x benchmarks x schemes per op; see
# BenchmarkGridFanout).  10M/s is ~3x below the single-core steady state,
# so it trips on a real regression (a per-access allocation, a decode
# slowdown, a lost fan-out), not on scheduler noise.
GRID_MIN_ACCESS_RATE ?= 10000000

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt over every tracked .go file must print nothing.  testdata/ is
# skipped: the lint fixtures there are malformed on purpose.
fmt-check:
	@out=$$(git ls-files '*.go' | grep -v '/testdata/' | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "fmt-check: not gofmt-clean:"; echo "$$out"; exit 1; fi

# The benchmark harness is its own module (perfbench/go.mod) over this
# one, so `go build ./...` here never compiles it.  Vet it and run its
# two fast self-checks (~1 s), so renaming or deleting an API it uses
# fails here rather than in a benchmark run.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test -run 'TestSelfTimes|TestMetricNames' ./...

# The repository's own invariant analyzers (see internal/lint and
# DESIGN.md § Enforced invariants): determinism, context flow, hot-path
# allocation discipline, the errors-not-panics constructor contract,
# //lint:allow justification hygiene, the recreated standard passes, and
# the CFG-based concurrency/service pack (lock release, goroutine
# termination, error discards, HTTP status discipline, Prometheus
# exposition hygiene, Closer release).  Fails on any finding, including
# an unjustified or misspelled //lint:allow.
lint:
	$(GO) run ./cmd/simlint ./...

# Same analyzers, but only over the packages this branch touches:
# changed .go files (committed since the merge base with main, staged,
# and unstaged) mapped to their package directories.  The tight
# pre-commit loop; `make lint` / `make ci` remain the authority.
lint-fast:
	@base=$$(git merge-base HEAD main 2>/dev/null || git rev-parse HEAD); \
	dirs=$$( { git diff --name-only $$base HEAD; git diff --name-only HEAD; git diff --name-only --cached; } \
		| grep '\.go$$' | grep -v '/testdata/' | xargs -r -n1 dirname | sort -u); \
	pkgs=""; for d in $$dirs; do [ -d "$$d" ] && pkgs="$$pkgs ./$$d"; done; \
	if [ -z "$$pkgs" ]; then echo "lint-fast: no changed Go packages"; \
	else echo "lint-fast:$$pkgs"; $(GO) run ./cmd/simlint $$pkgs; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short fuzz pass over the stream combinators against their slice-level
# references; extend -fuzztime for a real session.
fuzz:
	$(GO) test ./internal/trace -fuzz FuzzBatchDifferential -fuzztime 30s

# 10-second smokes over the corruption fuzzers — enough to catch a decoder
# regression on truncated/bit-flipped inputs without slowing CI down: the
# trace codec, the segmented compiled-trace decoder (truncated payloads,
# corrupt segment indexes), the result-store manifest decoder, and the
# roster/scheme declaration decoder (hostile roster files and simd
# request bodies) — plus the stream-combinator differential and the
# differentials of the two hand-written codecs on the /v1/cell path
# (per-set counts against json.Unmarshal, the store-key writer against
# report.CanonicalJSON).
fuzz-smoke:
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzBatchDifferential -fuzztime 10s
	$(GO) test ./internal/trace -fuzz FuzzStreamCodecCorruption -fuzztime 10s
	$(GO) test ./internal/trace -fuzz FuzzCompiledDecode -fuzztime 10s
	$(GO) test ./internal/resultstore -run '^$$' -fuzz FuzzManifestDecode -fuzztime 10s
	$(GO) test ./internal/resultstore -run '^$$' -fuzz FuzzManifestCounts -fuzztime 10s
	$(GO) test ./internal/resultstore -run '^$$' -fuzz FuzzCellKeyPayload -fuzztime 10s
	$(GO) test ./internal/registry -run '^$$' -fuzz FuzzRosterDecode -fuzztime 10s

bench:
	$(GO) test -bench . -benchmem ./...

# Grid-engine benchmark, three repetitions, summarised into
# BENCH_grid.json and gated on the allocation budget and throughput floor.
bench-grid:
	$(GO) test -run '^$$' -bench 'BenchmarkGridFanout$$' -benchmem -count 3 . \
		| $(GO) run ./cmd/benchjson -o BENCH_grid.json \
			-maxallocs BenchmarkGridFanout=$(GRID_ALLOC_BUDGET) \
			-minmetric BenchmarkGridFanout:accesses/s=$(GRID_MIN_ACCESS_RATE)

# Result-store benchmark trio (cold simulation vs warm memory vs warm
# disk), the key layer (BenchmarkCellKey: catalog names, inline
# declarations), the disk tier's decode (BenchmarkDecodeManifest: one
# 1024-set manifest) and the HTTP edge of a warm /v1/cell hit
# (BenchmarkServeCell: memory, memory with per-set counts, disk),
# summarised into BENCH_serve.json.  The key layer, the decode and the
# edge are recorded, not gated; the run is gated on the cold/warm ratio: serving
# a cached cell must beat recomputing it by >= 100x.
bench-serve:
	$(GO) test -run '^$$' -bench 'BenchmarkCell(Cold|WarmMemory|WarmDisk|Key)$$|BenchmarkDecodeManifest$$|BenchmarkServeCell$$' -benchmem -count 3 \
		./internal/resultstore ./internal/server \
		| $(GO) run ./cmd/benchjson -o BENCH_serve.json \
			-minspeedup BenchmarkCellCold/BenchmarkCellWarmMemory=$(SERVE_MIN_SPEEDUP)

# End-to-end service smoke: build the real simd binary, serve on an
# ephemeral port, prove the second identical request is a store hit, then
# SIGTERM and require a clean drain (exit 0) with no leaked goroutines.
# The admin-mix smoke replays a golden-pinned load against a
# quota-bounded node while simload fires deletions and forced GC into
# the stream: recomputes allowed, wrong answers not.
smoke-simd:
	$(GO) test -run 'TestSmoke|TestAdminMixSmoke' -count 1 ./cmd/simd

# Kill-a-node cluster soak (see TestClusterSmoke): a golden single node
# pins every cell's answer, then a 3-node fleet serves the same
# 100k-request Zipf mix with one node SIGKILLed mid-run (zero wrong
# answers, error budget 0.5%), a second SIGTERMed into an observable
# drain, and the survivor absorbing the whole keyspace.  Race-built, so
# the forward/hedge/breaker paths run under the detector at full load.
CLUSTER_SOAK_REQUESTS ?= 100000
smoke-cluster:
	SIMD_CLUSTER_REQUESTS=$(CLUSTER_SOAK_REQUESTS) \
		$(GO) test -race -run 'TestClusterSmoke|TestSmokeSaturation' -count 1 -timeout 30m -v ./cmd/simd

# Cluster serving benchmark: a healthy 3-node fleet under the standard
# Zipf mix (see TestClusterBench), summarised into BENCH_cluster.json and
# gated three ways: availability (ok_frac >= 99.5%), correctness
# (wrong_total must be 0), and tail latency (p99 under the ceiling; the
# default absorbs cold-cell computes and forwarded hops with ~3x headroom
# over the observed steady state).
CLUSTER_P99_CEILING_NS ?= 250000000
bench-cluster:
	SIMD_CLUSTER_BENCH=1 $(GO) test -run TestClusterBench -count 1 -timeout 30m -v ./cmd/simd \
		| $(GO) run ./cmd/benchjson -o BENCH_cluster.json \
			-minmetric BenchmarkSimload:ok_frac=0.995 \
			-maxmetric BenchmarkSimload:wrong_total=0 \
			-maxmetric BenchmarkSimload:p99_ns=$(CLUSTER_P99_CEILING_NS)

# Store lifecycle soak (see TestStoreSoak): a million distinct cells
# pushed through a quota-bounded on-disk store from concurrent writers,
# with read-back verification that distinguishes a wrong answer from a
# legal eviction.  Summarised into BENCH_store.json and gated three
# ways: correctness (wrong_total must be 0), the quota invariant
# (disk_over_quota counts samples where physical usage exceeded the
# quota — must be 0), and bounded memory (peak heap under the ceiling;
# the store's state is O(quota), so the soak's footprint must not grow
# with the cell count).
STORE_SOAK_CELLS ?= 1000000
STORE_SOAK_QUOTA ?= 8388608
STORE_SOAK_HEAP_MB ?= 256
soak-store:
	STORE_SOAK_CELLS=$(STORE_SOAK_CELLS) STORE_SOAK_QUOTA=$(STORE_SOAK_QUOTA) \
		$(GO) test -run TestStoreSoak -count 1 -timeout 60m -v ./internal/resultstore \
		| $(GO) run ./cmd/benchjson -o BENCH_store.json \
			-maxmetric BenchmarkStoreSoak:wrong_total=0 \
			-maxmetric BenchmarkStoreSoak:disk_over_quota=0 \
			-maxmetric BenchmarkStoreSoak:heap_peak_mb=$(STORE_SOAK_HEAP_MB)

# Cheap single-iteration run of the fan-out benchmark through the same
# allocation gate and the compiled-replay throughput floor; fails if the
# engine ever allocates per-access or drops below the accesses/s floor
# (the single cold iteration pays trace compilation, so the floor's 3x
# headroom absorbs it).
allocs-gate:
	$(GO) test -run '^$$' -bench 'BenchmarkGridFanout$$' -benchtime 1x -benchmem . \
		| $(GO) run ./cmd/benchjson \
			-maxallocs BenchmarkGridFanout=$(GRID_ALLOC_BUDGET) \
			-minmetric BenchmarkGridFanout:accesses/s=$(GRID_MIN_ACCESS_RATE)

# The gate a PR must pass: compile everything, vet, check gofmt, vet and
# self-check the perfbench harness, run the invariant analyzers, run the
# full test suite (including the goroutine-leak-checked cancellation and
# fault injection tests) under the race detector, smoke the corruption
# fuzzers and the simd service end-to-end, run the kill-a-node cluster
# soak, run the million-cell store lifecycle soak, check the fan-out
# engine's allocation budget, check the result store's cold/warm speedup,
# and gate the cluster's availability, correctness, and tail latency.
ci:
	$(GO) build ./...
	$(GO) vet ./...
	$(MAKE) fmt-check
	$(MAKE) perfbench-check
	$(MAKE) lint
	$(GO) test -race ./...
	$(MAKE) fuzz-smoke
	$(MAKE) smoke-simd
	$(MAKE) smoke-cluster
	$(MAKE) soak-store
	$(MAKE) allocs-gate
	$(MAKE) bench-serve
	$(MAKE) bench-cluster
