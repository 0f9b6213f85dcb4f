GO ?= go

.PHONY: all build vet fmt lint test race fuzz-seeds paranoid fault-smoke cover-smoke examples chaos-smoke serve-smoke store-race determinism-smoke crash-replay-smoke golden cover-golden bench bench-check bench-ab perfbench-check check report

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting gate: fails listing every tracked Go file gofmt would
# change. Listing tracked files keeps untracked build trees such as
# .bench_build/ out of the check.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# Repo-local precedence lints (internal/lint): shift-vs-additive and
# bitand-vs-compare expressions must spell out their grouping.
lint:
	$(GO) run ./cmd/sdsp-lint .

test:
	$(GO) test ./...

# The parallel experiment runner and the concurrency smoke tests are
# only a proof when run under the race detector. The experiments sweep
# can exceed go test's default 10-minute package timeout under the
# detector's slowdown on small machines.
race:
	$(GO) test -race -timeout 30m ./...

# Replay the committed fuzz corpus seeds as ordinary tests.
fuzz-seeds:
	$(GO) test -run=Fuzz ./internal/asm
	$(GO) test -run=FuzzVerify ./sdsp
	$(GO) test -run=FuzzDecodeStats ./internal/store

# Every paper kernel under full per-cycle invariant checking, the
# experiment pipeline in paranoid mode at small scale, and the
# Paper-scale thread sweeps (figs 5 and 6), so every invariant is also
# checked at the scale EXPERIMENTS.md reports; their tables must match
# the committed Paper-scale golden.
paranoid:
	$(GO) test ./sdsp -run TestAllKernelsParanoid
	$(GO) run ./cmd/sdsp-exp -scale small -paranoid > /dev/null
	$(GO) run ./cmd/sdsp-exp -scale paper -exp fig5,fig6 -paranoid > /tmp/paranoid-paper.txt
	cmp /tmp/paranoid-paper.txt internal/experiments/testdata/paper_fig5_fig6.golden

# Fault-injection smoke matrix: one preset per mechanism through the
# CLI, with invariants armed; each run must still validate its golden
# result and match the functional simulator.
fault-smoke:
	for spec in light heavy cache-storm wb-storm bpred-storm squash-storm sync-storm fetch-storm store-storm commit-storm; do \
		$(GO) run ./cmd/sdsp-sim -bench Water -threads 4 -paranoid -functional -fault $$spec,seed=7 > /dev/null || exit 1; \
	done
	$(GO) run ./cmd/sdsp-sim -bench LL5 -threads 2 -paranoid -functional -fault seed=13,miss=0.05,wb=0.05,flip=0.05,squash=0.01,sync=0.05,wake=0.02,fetch=0.05,fblock=0.02 > /dev/null

# Coverage smoke: the event table over the four scheduled kernels
# through the CLI, plus the coverage-floor tests (kernel floor and the
# guided-generator must-hit check against the committed gap golden).
# The tables land in /tmp/coverage-tables.txt and the verbose test log
# in /tmp/coverage-floor.txt (CI uploads both); the test's exit status
# is kept, since make's /bin/sh has no pipefail to see through a tee.
cover-smoke:
	$(GO) build -o /tmp/sdsp-sim-cover ./cmd/sdsp-sim
	for bench in LL1 LL5 Matrix Sieve; do \
		/tmp/sdsp-sim-cover -bench $$bench -threads 4 -cover || exit 1; \
	done > /tmp/coverage-tables.txt
	$(GO) test ./sdsp -run 'TestKernelCoverage|TestCoverageFloor' -v > /tmp/coverage-floor.txt 2>&1; \
		status=$$?; cat /tmp/coverage-floor.txt; exit $$status

# Every example program runs to completion, and the pipeline trace
# example prints each stage it renders.
examples:
	for ex in cachestudy customprogram fetchpolicy miniccompile quickstart; do \
		$(GO) run ./examples/$$ex > /dev/null || exit 1; \
	done
	$(GO) run ./examples/pipetrace > /tmp/pipetrace.txt
	for stage in fetch dispatch issue wb commit; do \
		grep -Eq "^ +[0-9]+  $$stage " /tmp/pipetrace.txt || { echo "pipetrace printed no $$stage line"; exit 1; }; \
	done

# Crash-safety chaos harness: kill real sdsp-exp sweeps at seeded
# mid-flight points, resume against the same store, and require
# byte-identical tables with zero recompute of committed cells (plus the
# two-process shared-store race). Set SDSP_CHAOS_OUT=<dir> to preserve
# the store state of a failing run.
chaos-smoke:
	$(GO) test ./internal/store/chaostest -count=1 -v

# Daemon smoke: a real sdsp-serve coordinator plus two real worker
# processes run the complete small-scale sweep over HTTP; the served
# tables must match the committed golden byte for byte. Set
# SDSP_SERVE_LOG_DIR=<dir> to tee every fleet process's stderr there
# (CI uploads it as an artifact on failure).
serve-smoke:
	$(GO) test ./internal/store/chaostest -run TestServeSmoke -count=1 -v

# The store's concurrency claims under the race detector: in-process
# concurrent Get/Put/TryLock, two handles on one directory seeing each
# other's appends, capped kept-open descriptors under concurrent Gets
# racing Close, quarantine writes landing while the store is reopened,
# 16 handles racing to claim one cell (exactly one wins), plus the
# parallel-runner store properties.
store-race:
	$(GO) test -race ./internal/store -run 'TestConcurrentAccess|TestTwoHandlesShareOneDirectory|TestDescriptorCapUnderConcurrentGets|TestReopenKeepsLiveTempFiles' -count=1
	$(GO) test -race ./internal/store -run TestLeaseConcurrentClaimOneWinner -count=20
	$(GO) test -race ./internal/experiments -run 'TestStoreColdWarmMixedIdentity|TestStoreCountersIndependentOfWorkers'

# Parallel determinism through the CLI: the small-scale sweep at -j 1
# and -j 8 must be byte-identical, and equal to the committed golden.
# The sweep is the whole registry, the studies (faultsweep, predstudy,
# mixstudy) included; CI uploads both outputs when this fails.
determinism-smoke:
	$(GO) build -o /tmp/sdsp-exp ./cmd/sdsp-exp
	/tmp/sdsp-exp -scale small -j 1 > /tmp/j1.txt
	/tmp/sdsp-exp -scale small -j 8 > /tmp/j8.txt
	cmp /tmp/j1.txt /tmp/j8.txt
	cmp /tmp/j1.txt internal/experiments/testdata/small_tables.golden

# Crash-bundle replay through the CLI: force a deterministic deadlock,
# capture its bundle outside the workspace, and require -replay to
# reproduce the identical failure.
crash-replay-smoke:
	$(GO) build -o /tmp/sdsp-sim ./cmd/sdsp-sim
	rm -rf /tmp/crash
	/tmp/sdsp-sim -bench Matrix -threads 4 -fault cache-storm,seed=3 -watchdog 3 -crashdir /tmp/crash && exit 1 || true
	/tmp/sdsp-sim -replay /tmp/crash/sdsp-crash-*

# Regenerate the small-scale golden tables, and the Paper-scale fig5/fig6
# golden, after an intentional change to a kernel, the core, or an
# experiment. This also rewrites the model digest that every cell ID
# folds in, so the change renames every cell and warm stores recompute
# instead of serving stale results. The digest sees the Small sweep only.
golden:
	$(GO) test ./internal/experiments -run 'TestGoldenSmallTables|TestGoldenPaperThreads' -update

# Regenerate the committed unguided coverage-gap list after an
# intentional change to the event model or the generator.
cover-golden:
	$(GO) test ./sdsp -run TestCoverageFloor -update

# Regenerate the committed simulator-throughput baseline (run on an
# otherwise idle machine; see docs/PERFORMANCE.md for the policy).
bench:
	$(GO) run ./cmd/sdsp-bench -write BENCH_sim.json

# Compare current throughput against the committed baseline. Simulated
# cycle counts must match exactly (they are machine-independent);
# wall-clock throughput may regress at most the tolerance.
bench-check:
	$(GO) run ./cmd/sdsp-bench -check BENCH_sim.json

# Paired comparison of the working tree against BASE, a git revision,
# on the repository benchmark (BENCHMARK.json): PAIRS alternating runs
# of every workload, or of WORKLOAD (comma-separated), at its
# run_seconds. Prints each end-to-end metric's medians and quartiles,
# the ratio, the pairs won and whether the paired rule holds, and fails
# when a change median is worse than its bound or a run failed a cell.
# Everything it builds and runs stays under .bench_build/ab/.
PAIRS ?= 10
bench-ab:
	@test -n "$(BASE)" || { echo "usage: make bench-ab BASE=<rev> [WORKLOAD=name,...] [PAIRS=10]" >&2; exit 2; }
	$(GO) run ./cmd/sdsp-benchab -base '$(BASE)' -workload '$(WORKLOAD)' -pairs $(PAIRS)

# The repository benchmark harness (perfbench/, its own module, so the
# root's ./... never compiles it) must still build, vet and pass its
# short tests against the packages it imports. It writes nothing under
# perfbench/.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test -short ./...

# Everything CI runs.
check: vet fmt lint build test race fuzz-seeds paranoid fault-smoke cover-smoke examples chaos-smoke serve-smoke store-race determinism-smoke bench-check crash-replay-smoke perfbench-check

# Full paper-scale experiment report (several minutes; all cores).
report:
	$(GO) run ./cmd/sdsp-report -o results.md
