GO ?= go

.PHONY: tier1 tier1-fmt tier2 tier2-reliability bench bench-all bench-profile clean all

all: tier1

# Tier 1: vet + build + full test suite (the gate every change must keep
# green).
tier1:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...

# Tier 1 formatting gate: the tree must be gofmt-clean and vet-clean.
# gofmt -l prints offending files; any output fails the target.
tier1-fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...

# Tier 2: static analysis + race-detector run over the whole repo.
tier2:
	$(GO) vet ./...
	$(GO) test -race ./...

# Tier 2 reliability: the fault campaigns, batch-serving equality tests,
# execution-graph equivalence/golden-regression tests, and the dirty-row
# recompilation property/staleness tests under the race detector, plus short
# fuzz runs over the PCM cell state machines the wear model leans on. The
# whole serve package (the chaos soak, the router/instance tests, and the
# routed 2-models×2-replicas soak — which drains each replica under live
# traffic and replays every per-replica op journal for bit-identity) also
# runs under -race here — its correctness claims are concurrency claims.
# The last fuzz run feeds arbitrary bytes to the state decoder
# (core.LoadNetwork), the trust boundary deployed weights arrive through.
tier2-reliability:
	$(GO) test -race -run 'Campaign|Wear|Fault|BIST|Scheduler|Drift|Batch|Golden|Graph|Recompile|Dirty|Stale|NoOp|ParallelBitIdentical' ./internal/reliability/ ./internal/core/ ./internal/mrr/ ./internal/pcm/
	$(GO) test -race -count=2 ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzActivationCell$$' -fuzztime 10s ./internal/pcm/
	$(GO) test -run '^$$' -fuzz '^FuzzCellProgram$$' -fuzztime 10s ./internal/pcm/
	$(GO) test -run '^$$' -fuzz '^FuzzLoadNetwork$$' -fuzztime 10s ./internal/core/

# Benchmark trajectory: the kernel/batch/recompilation microbenchmarks, the
# training pair, the two regenerating-table benchmarks, the serving
# throughput pair, the routed-replica pair, and the pipelined-execution
# pair, BENCH_COUNT repetitions with allocation reporting, parsed into the
# machine-readable trajectory file (BENCH_OUT, default
# BENCH_PR10.json). cmd/benchjson exits non-zero unless the factored kernel
# holds ≥2× over the reference triple loop on the 64×64 bank, the compiled
# batch kernel ≥1.5× over the factored kernel on the 256×256 batched MVM,
# the incremental dirty-row recompile ≥5× over a full snapshot rebuild on
# the 256×256 bank, the pool-parallel batch GEMM ≥1.5× over the
# single-threaded batch on the 256×256 bank (recorded but waived on
# single-CPU hosts, where no parallel speedup is physically available —
# multi-core CI enforces it), the micro-batching serve front-end ≥1.2×
# requests/second over single-request dispatch, batched in-situ training
# ≥2× per-sample throughput over the sequential TrainSample schedule on the
# 256×256 layer, two-replica routed serving ≥1.3× a single replica
# under maintenance churn (ApplyParallelGate: recorded but waived below 2
# CPUs, where the sibling replicas cannot actually run concurrently), and
# 4-stage pipelined DeepCNN batch execution ≥1.4× the sequential batched
# path (recorded but waived below 4 CPUs, where four stage workers cannot
# actually overlap).
BENCH_OUT ?= BENCH_PR10.json
BENCH_COUNT ?= 6
BENCH_PATTERN = ^(BenchmarkBankMVM|BenchmarkBankMVMCompiled|BenchmarkBankMVMFactored|BenchmarkBankMVMReference|BenchmarkBankMVMBatch|BenchmarkBankMVMBatchFactored|BenchmarkBankMVMBatchParallel|BenchmarkBankRecompileFull|BenchmarkBankRecompileIncremental|BenchmarkBankProgram|BenchmarkTrainStep|BenchmarkTrainBatch|BenchmarkTransposeCompiled|BenchmarkTableIII_PowerBreakdown|BenchmarkFigure6_InferencesPerSecond|BenchmarkServeBatcher|BenchmarkServeUnbatched|BenchmarkRouterOneReplica|BenchmarkRouterTwoReplicas|BenchmarkDeepCNNBatchSequential|BenchmarkDeepCNNBatchPipelined)$$

bench:
	$(GO) test -run='^$$' -bench='$(BENCH_PATTERN)' -benchmem -count=$(BENCH_COUNT) . > bench.out
	$(GO) run ./cmd/benchjson -out $(BENCH_OUT) < bench.out
	@rm -f bench.out

# Profiled trajectory run: the same benchmarks through `trident bench` with
# CPU and allocation profiles captured for `go tool pprof` (see DESIGN.md
# §11/§12 for captured excerpts). Writes its (single-repetition, profiled)
# trajectory to a scratch file so the tracked $(BENCH_OUT) keeps the
# unprofiled six-repetition numbers from `make bench`.
bench-profile:
	$(GO) run ./cmd/trident bench -o bench-profile.json -cpuprofile cpu.pprof -memprofile mem.pprof

# The full benchmark suite (every table, figure and hot path), no trajectory
# file.
bench-all:
	$(GO) test -bench=. -benchmem -run='^$$' .

# Remove benchmark/profiling byproducts (the tracked BENCH_*.json
# trajectories are left alone).
clean:
	rm -f cpu.pprof mem.pprof bench-profile.json bench.out
