GO ?= go

.PHONY: all build test vet lint lint-baseline lint-sarif race bench bench-check chaos fuzz-smoke telemetry-smoke datapath-smoke scenario-smoke ci

# Hot-path benchmarks recorded by `make bench` (see README.md,
# "Benchmark ledger"). BENCH_LABEL picks the ledger column `make bench`
# writes and `make bench-check` gates allocs/op against (CI's
# bench-smoke checks the same column). The metrics record path
# (//lint:hotpath roots) is benched separately so its allocs/op rows —
# expected 0 — sit in the same ledger.
BENCH_PATTERN ?= ^(BenchmarkLocalSearchNode|BenchmarkLocalSearchRack|BenchmarkOptimizePeriod|BenchmarkOptimizePeriodSharded|BenchmarkDataPathThroughput|BenchmarkSimEventLoop)$$
BENCH_METRICS_PATTERN ?= ^(BenchmarkLogHistogramObserve|BenchmarkGaugeAdd|BenchmarkRegistryCounterLookupInc)$$
BENCH_LABEL ?= simloop

all: build test

# Both tag variants must compile: the default build and the debug build
# with runtime invariant assertions (internal/invariant.Enabled).
build:
	$(GO) build ./...
	$(GO) build -tags invariantdebug ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The project-specific analyzer: one typed whole-module pass running the
# per-file rules (guarded-by, mutex copies, determinism, float
# comparison, discarded errors) plus the cross-package analyzers
# (lock-order, deadline propagation, rng taint, error wrapping, the
# conc model checker and the §15 protoconform gate). Gated against the
# committed baseline and the wall-time budgets; see DESIGN.md §11, §16.
lint: vet
	$(GO) run ./cmd/aurora-lint -baseline lint.baseline -timing -budget 10s -conc-budget 3s -stats lint-stats.json ./...

# Regenerate the accepted-findings baseline. Run deliberately and review
# the diff: every entry grandfathers a finding the gate will then skip.
lint-baseline:
	$(GO) run ./cmd/aurora-lint -baseline lint.baseline -write-baseline ./...

# Machine-readable findings for the CI artifact. Always writes
# lint.sarif; the exit code still reflects non-baseline findings.
lint-sarif:
	$(GO) run ./cmd/aurora-lint -format sarif -baseline lint.baseline ./... > lint.sarif

# Race detector with invariant assertions compiled in, so every
# optimizer period in the stress tests also checks the paper invariants.
race:
	$(GO) test -race -tags invariantdebug ./...

# Seeded chaos gate under the race detector: a third of the datanodes
# crash mid-run (plus latency spikes, dropped heartbeats and a corrupt
# replica); no block may be lost and the same seed must reproduce the
# same fault log. Runs twice: against the classic namenode and against a
# 4-shard partitioned block map (recovery must be shard-count-
# independent). See DESIGN.md §10.
chaos:
	$(GO) test -race -tags invariantdebug -run '^TestChaosCrashRecoverNoDataLoss$$' -v ./internal/dfs/
	AURORA_CHAOS_SHARDS=4 $(GO) test -race -tags invariantdebug -count=1 -run '^TestChaosCrashRecoverNoDataLoss$$' -v ./internal/dfs/

# Short native-fuzz smoke over the checked-in corpora: the wire-frame
# decoder, the xor-splitmix64 digest algebra and the report-tracker
# merge each fuzz for a few seconds, so decoder panics and merge
# regressions surface here without a long campaign. See DESIGN.md §15.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 5s ./internal/dfs/proto
	$(GO) test -run '^$$' -fuzz '^FuzzDigestMerge$$' -fuzztime 5s ./internal/dfs/proto
	$(GO) test -run '^$$' -fuzz '^FuzzTrackerMerge$$' -fuzztime 5s ./internal/dfs/datanode

# Boot the testbed with a live telemetry endpoint, scrape /metrics once
# and assert the optimizer SOL series, machine-load gauges and RPC
# latency histograms are exposed. See DESIGN.md §12.
telemetry-smoke:
	bash scripts/telemetry_smoke.sh

# Boot the testbed with streaming forced on (small chunks + read-ahead),
# scrape /metrics and assert the chunk/byte counters moved — catches a
# silent fallback to one-shot block RPCs. See DESIGN.md §15.
datapath-smoke:
	bash scripts/datapath_smoke.sh

# Run the seeded predictor scenario matrix twice and assert byte-identical
# output, nonzero aurora_predictor_* telemetry, and that the seasonal
# predictor's mean per-period SOL is strictly below reactive's on the
# diurnal and flashcrowd scenarios. See DESIGN.md §17.
scenario-smoke:
	bash scripts/scenario_smoke.sh

# Run the core hot-path benchmarks and merge the numbers into
# BENCH_core.json under $(BENCH_LABEL). The intermediate file keeps a
# failed bench run from feeding partial output into the ledger.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 2x -benchmem . > bench.out
	$(GO) test -run '^$$' -bench '$(BENCH_METRICS_PATTERN)' -benchtime 100x -benchmem ./internal/metrics >> bench.out
	$(GO) run ./cmd/benchjson -label $(BENCH_LABEL) -in bench.out -out BENCH_core.json
	@rm -f bench.out

# Alloc ratchet: re-run the hot-path benchmarks and fail if any
# allocs/op regressed against the committed ledger (10% + 2 allocs
# tolerance; ns/op is not gated — timing noise is not a regression).
bench-check:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 2x -benchmem . > bench.out
	$(GO) test -run '^$$' -bench '$(BENCH_METRICS_PATTERN)' -benchtime 100x -benchmem ./internal/metrics >> bench.out
	$(GO) run ./cmd/benchjson -check $(BENCH_LABEL) -in bench.out -out BENCH_core.json
	@rm -f bench.out

ci: build lint test race
