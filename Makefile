GO ?= go

.PHONY: all build lint lint-fixtures test race allocs bench bench-quick bench-micro figures fmt vet clean

all: build vet lint test

build:
	$(GO) build ./...

# Static-analysis suite (see docs/LINTING.md): detrange, detsource and
# clonegate, the three analyzers a mutant table shows guarding what no test
# covers. Must exit clean: fix the finding; there is no exemption file, and
# no analyzer is silenced.
lint:
	$(GO) run ./cmd/pegflow-lint ./...

# Just the three analyzers' fixture tests: the fast loop when hacking on an
# analyzer (each Test*Fixture matches findings 1:1 against // want).
lint-fixtures:
	$(GO) test -run 'Fixture' ./internal/analysis/...

test:
	$(GO) test -vet=all ./...

# The stress variant CI runs on the concurrency-heavy packages, and the
# warm-storage tests, whose workers hand executors and plan slabs to each
# other through the packages' free lists (internal/spare). The
# timeout turns a deadlock — a lock-owning type's method blocking on
# another lock or a channel, or a gate token never returned — into a fast
# stack-dumped failure instead of a hung job.
race:
	$(GO) test -race -count=2 -timeout 120s ./internal/server/... ./internal/scenario ./internal/lru ./internal/pool
	$(GO) test -race -count=10 -timeout 120s -run 'TestCachedMasterUnchangedByConcurrentCells|TestPlanCloneDeeplyIndependent|TestGraphViewIsPrivate|TestResolvedUnchangedByConcurrentPlans|TestWorldKeyComputedOnce|TestFirstRetrievalBuildsOnce|TestConcurrentReadersShareOneTopology|TestWarmRunEqualsFresh|TestCloneAfterReleaseIsIndependent|TestWarmCellsMatchGoldens' ./internal/planner ./internal/workflow ./internal/dax ./internal/sim/platform ./internal/scenario

# The allocation gates CI runs, the one guard of the zero-allocation
# kernel: zero-alloc kernel events, one-off and periodic (TestAllocsSeries),
# a fifo.Queue whose push and pop allocate nothing through compaction
# (TestAllocsQueue), engine dispatch, an attempt path (platform Submit to
# terminal event, ensemble hold and release) that allocates nothing per
# attempt, site fault and ramp events that allocate no more at 2n cycles
# than at n (TestAllocsFaultEvents), a plan clone and a warm member plan
# (placement + clone + patch), one-site and two-site, whose allocation counts
# do not grow with n, a cold BuildDAX at twelve objects per chunk or fewer, a
# first Plan of a shape (the master's index and slab) at a tenth of an object
# per job or fewer, a Cluster call that allocates one string per
# composite and a fixed count besides, a failover re-site that allocates the job it
# returns, a chunk-seconds miss that allocates its result only and
# a hit that allocates nothing, an LRU whose lookups allocate nothing and
# whose insert is one entry, and the scenario front door: a warm paper.json
# cell on the storage the cell before it released within a flat budget, its
# n = 500 cell within a stated slack of its n = 10 cell, a Parse
# that walks no source positions for a valid document (TestAllocsParse) and
# a Compile that builds no catalogs nor anything else a cache-hit request
# does not need (TestAllocsCompile); a
# steady-state aggregating-log fold and a Summarize of an exact log that
# allocate nothing, and a quantile sketch whose NewSketch is one object and
# whose Add, Merge and Quantile allocate nothing (TestAllocsSketch).
# TestShapeCache*: shape-cache charges within 2× of the heap; budget ≥ 4× big_run's shape.
allocs:
	$(GO) test -run 'TestAllocs|TestShapeCache' -count=1 ./internal/sim/des ./internal/fifo ./internal/sim/platform ./internal/ensemble ./internal/engine ./internal/planner ./internal/workflow ./internal/lru ./internal/scenario ./internal/stats ./internal/stats/quantile

# The repo benchmark (BENCHMARK.json, bench/README.md): five workloads
# through the two front doors, ~5 min; bench-quick is the ~5 s smoke of the
# same harness with its correctness checks on.
bench:
	$(GO) run ./bench

bench-quick:
	$(GO) run ./bench -quick

# Kernel, engine and queue microbenchmarks, for measuring while you work.
bench-micro:
	$(GO) test -run='^$$' -bench=. -benchmem ./internal/sim/des ./internal/engine ./internal/fifo

# Rewrites the experiments figure goldens (cmd/experiments/testdata) and
# BENCH_cluster.json from the current tree; review the diff before committing.
figures:
	$(GO) test -count=1 -run TestFigureGoldens ./cmd/experiments -update
	$(GO) run ./cmd/experiments -fig cluster -bench-out BENCH_cluster.json > /dev/null

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
