GO ?= go

.PHONY: all build lint lint-fixtures test race allocs bench bench-quick bench-micro fmt vet clean

all: build vet lint test

build:
	$(GO) build ./...

# Static-analysis suite (see docs/LINTING.md). Must exit clean; add
# justified exemptions to lint.allow, never silence an analyzer.
lint:
	$(GO) run ./cmd/pegflow-lint ./...

# Just the analyzer fixture tests: the fast loop when hacking on an
# analyzer (each Test*Fixture matches findings 1:1 against // want).
lint-fixtures:
	$(GO) test -run 'Fixture' ./internal/analysis/...

test:
	$(GO) test -vet=all ./...

# The stress variant CI runs on the concurrency-heavy packages. The
# timeout turns a deadlock (the bug class lockhold/pairpath exist for)
# into a fast stack-dumped failure instead of a hung job.
race:
	$(GO) test -race -count=2 -timeout 120s ./internal/server/... ./internal/scenario ./internal/lru
	$(GO) test -race -count=10 -timeout 120s -run 'TestCachedMasterUnchangedByConcurrentCells|TestPlanCloneDeeplyIndependent|TestGraphViewIsPrivate|TestResolvedUnchangedByConcurrentPlans|TestWorldKeyComputedOnce|TestFirstRetrievalBuildsOnce' ./internal/core ./internal/planner ./internal/workflow

# The allocation gates CI runs: zero-alloc kernel and engine dispatch, an
# attempt path (platform Submit to terminal event, ensemble hold and release)
# that allocates nothing per attempt, a plan clone and a warm member plan
# (placement + clone + patch), one-site and two-site, whose allocation counts
# do not grow with n, a first Plan of a shape (the master's index and slab) at
# three objects per job or fewer, a Cluster call that allocates one string per
# composite and a fixed count besides, a failover re-site that allocates the job it
# returns, a chunk-seconds miss that allocates its result only and
# a hit that allocates nothing, an LRU whose lookups allocate nothing and
# whose insert is one entry, and the scenario front door: a warm single-site
# cell within the budget of the pipeline it replaced and flat in n, and a
# Compile that computes nothing a cache-hit request does not need.
# TestShapeCache*: shape-cache charges within 2× of the heap; budget ≥ 4× big_run's shape.
allocs:
	$(GO) test -run 'TestAllocs|TestShapeCache' -count=1 ./internal/sim/des ./internal/sim/platform ./internal/ensemble ./internal/engine ./internal/core ./internal/planner ./internal/workflow ./internal/lru ./internal/scenario

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

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
