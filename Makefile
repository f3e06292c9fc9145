# Convenience targets for the qsub reproduction.

GO ?= go

.PHONY: all build test vet race race-delivery bench bench-smoke bench-pair check cover experiments fuzz fuzz-short loadtest loc clean

# Coverage floor for the observability layer: the metrics registry is
# the contract every hot path leans on, so its package stays near-fully
# covered.
METRICS_COVER_FLOOR := 85.0

all: build test

# The full pre-merge gate: build, vet and the race-enabled test suite
# (the parallel solvers make -race load-bearing, not optional), plus a
# smoke run of the sharded planning pipeline through the simulator and of
# the repo benchmark. The benchmark is its own module, so a root-module
# API change that breaks it is only caught by vetting it here.
check: bench-smoke
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) vet -C benchmark ./...
	$(GO) test -race ./...
	$(GO) run ./cmd/qsubsim -exp sharding -shards 16 -aggregate

# The repo benchmark (BENCHMARK.json, benchmark/) is its own module, so
# `go test ./...` never sees it: its tests check that BENCHMARK.json still
# matches the benchmark's table and run all five workloads for 3 verified
# cycles each.
bench-smoke:
	$(GO) test -C benchmark ./...

# Paired before/after runs of the repo benchmark: both versions are
# copied out and run alternately, and each end-to-end metric is printed
# as median [q1, q3] per side with the ratio and the pairs won (see
# scripts/benchpair.sh; BASE=HEAD is the A/A control). HEAD=. is the
# working tree.
#   make bench-pair BASE=HEAD~1 HEAD=. WORKLOAD=churn-sharded SEED=2
BASE ?= HEAD~1
HEAD ?= .
WORKLOAD ?= churn-sharded
SEED ?= 1
PAIRS ?= 10
bench-pair:
	bash scripts/benchpair.sh $(BASE) $(HEAD) $(WORKLOAD) -seed $(SEED) -pairs $(PAIRS)

# Focused vet + race leg for the planning pipeline (its replans
# included) plus the neighbor-pruned/anytime solver paths and the rank-table
# size path with its pooled solver workspace: fast enough for a pre-push
# hook, strict enough to catch data races in the per-shard worker pool,
# the budget's atomic step accounting, the engines concurrent shard and
# component solves take from one pool, the candidate pair lists and rank
# tables they read (RankTable, PairLists), the grid lay-out two
# concurrent rank-table builds may both find due while searches and size
# probes read the cells (LayOut), the disjoint-pair bound's sets, and the
# NaN-region refusal in front of all of them. The Parallel alternative adds the
# determinism tests, which run the parallel solvers at GOMAXPROCS 1 to 8
# and compare the plans. The publish round's matchers ride along: the
# per-cycle region index built once under concurrent publishes, the
# delta batch grid built lazily under concurrent probes, and the
# equivalence and brute-force oracles of both insert paths.
vet:
	$(GO) vet ./...
	$(GO) test -race ./internal/shard
	$(GO) test -race -run 'Neighbor|Budget|Replan|RankTable|Workspace|GroupSolve|PairLists|GroupCache|InstanceSub|DisjointBound|NaNRegion|Parallel|RegionIndex|DeltaIndex|DeltaPublish|BruteForce|ConcurrentPublish|LayOut' \
		./internal/core ./internal/chanalloc ./internal/server ./internal/relation

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Focused race leg for the delivery layer: the Publish/Cancel stress
# test, session-lifecycle and reconnect paths run multiple times so the
# scheduler explores more interleavings than one -race pass would. The
# receive path's borrow rule (answers and raw frames alias the
# connection's read buffer, DESIGN.md §6) spans wire, netclient.Conn, the
# client runtime and the relay, so its ownership tests in all of them
# run here too.
race-delivery:
	$(GO) test -race -count=3 ./internal/multicast ./internal/fanout ./internal/wire ./internal/daemon ./internal/relay ./internal/netclient ./internal/netfault ./internal/client

# Coverage report with a hard floor on internal/metrics (see
# METRICS_COVER_FLOOR above). The full-repo profile is informational;
# only the metrics package gates.
cover:
	$(GO) test -coverprofile=/tmp/qsub-cover.out ./...
	$(GO) tool cover -func=/tmp/qsub-cover.out | tail -1
	$(GO) test -coverprofile=/tmp/qsub-metrics-cover.out ./internal/metrics
	@total=$$($(GO) tool cover -func=/tmp/qsub-metrics-cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "internal/metrics coverage: $$total% (floor $(METRICS_COVER_FLOOR)%)"; \
	awk -v t="$$total" -v floor="$(METRICS_COVER_FLOOR)" 'BEGIN { exit (t+0 < floor+0) ? 1 : 0 }' \
		|| { echo "FAIL: internal/metrics coverage below floor"; exit 1; }

bench:
	$(GO) test -bench=. -benchmem ./...

# Short-mode fan-out load harness: 500 real TCP sessions through the
# split-process driver, sanity-gating the delivery fabric on every CI run
# without the full 10k-session measurement (run that by hand:
# `go run ./cmd/qsubload -sessions 10000 -channels 64 -cycles 3 -latency`,
# `-timeout 10m`). The second
# run gates end-to-end latency: publish→receive p99 must be nonzero
# (frames carried timestamps) and under a deliberately generous 2s
# ceiling — a sanity floor, not a performance target. The third run is
# the relay smoke leg: one root → 2 relays → 500 sessions, exercising
# the hierarchical tier's exact-delivery cross-checks end to end.
loadtest:
	$(GO) run ./cmd/qsubload -sessions 500 -channels 8 -cycles 2
	$(GO) run ./cmd/qsubload -sessions 500 -channels 8 -cycles 2 -latency -assert-p99 2s
	$(GO) run ./cmd/qsubload -sessions 500 -channels 8 -cycles 2 -relays 2

# Regenerates every table and figure (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/qsubsim -exp all -trials 200

fuzz:
	$(GO) test ./internal/wire -fuzz FuzzUnmarshalMessage -fuzztime 30s
	$(GO) test ./internal/wire -fuzz FuzzUnmarshalSubscribe -fuzztime 30s
	$(GO) test ./internal/wire -fuzz FuzzUnmarshalRelaySub -fuzztime 10s
	$(GO) test ./internal/wire -fuzz FuzzUnmarshalRelayAck -fuzztime 10s
	$(GO) test ./internal/wire -fuzz FuzzUnmarshalRelayCtl -fuzztime 10s
	$(GO) test ./internal/wire -fuzz FuzzReadFrame -fuzztime 10s
	$(GO) test ./internal/netclient -fuzz FuzzConnReadFrame -fuzztime 30s
	$(GO) test ./internal/client -run '^$$' -fuzz '^FuzzHandle$$' -fuzztime 30s -fuzzminimizetime 1s
	$(GO) test ./internal/relation -fuzz FuzzRankTable -fuzztime 30s
	$(GO) test ./internal/geom -fuzz FuzzDisjointCover -fuzztime 30s
	$(GO) test ./internal/geom -fuzz FuzzConvexHull -fuzztime 30s

# The CI fuzz leg: the answer-frame decoder (held to its field-by-field
# oracle), the frame reader, the live reader every client and relay
# parses its upstream with (netclient.Conn, held to the frame reader),
# and the extractor's id-ordered views (held to the map-based oracle):
# every listener's per-frame path and the first bytes any peer controls.
# Then the rank table every exact plan sizes its merged sets with (held to
# SizeBytesRect, and its rank-rectangle unions to MergedSize of the member
# list).
# The live reader's inputs run past its 32 KiB buffer and an extractor
# input is a whole message stream, so minimizing one takes seconds and
# minimization is capped to leave the 15 s exploring.
fuzz-short:
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzUnmarshalMessage$$' -fuzztime 15s
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 15s
	$(GO) test ./internal/netclient -run '^$$' -fuzz '^FuzzConnReadFrame$$' -fuzztime 15s -fuzzminimizetime 1s
	$(GO) test ./internal/client -run '^$$' -fuzz '^FuzzHandle$$' -fuzztime 15s -fuzzminimizetime 1s
	$(GO) test ./internal/relation -run '^$$' -fuzz '^FuzzRankTable$$' -fuzztime 15s

# Root-module non-test Go lines: the one count every CHANGES.md entry and
# ROADMAP re-anchor cites. The benchmark module and the benchmark's build
# directory are not part of the root module.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' | xargs cat | wc -l

clean:
	$(GO) clean ./...
