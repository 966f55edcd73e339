# CI entry points. `make ci` is what a pipeline should run; the race
# target matters since the parallel experiment runner introduced real
# concurrency (worker pools executing independent simulations).

GO ?= go

.PHONY: build test race vet figures fuzz-smoke bench bench-json bench-check overhead-guard smoke smoke-race read-smoke read-smoke-race malice-race slo-smoke chaos chaos-ci migration-chaos cluster-smoke cluster-smoke-race ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race: smoke-race
	$(GO) test -race ./...

# fsencrd end-to-end smoke: boot the multi-tenant file service, drive it
# over real HTTP with 8 loadgen clients across 2 tenants, and assert zero
# cross-tenant leaks, ciphertext-only insider dumps, byte-identical
# per-shard telemetry across reruns, and a clean goroutine-free drain.
smoke:
	$(GO) test -run 'TestFsencrdSmoke' -v ./internal/server

smoke-race:
	$(GO) test -race -run 'TestFsencrdSmoke' -v ./internal/server

# Concurrent-read smoke: a fair-mode fsencrd under a read-heavy mixed load
# (reads, writes, stats, cross-tenant probes) over real HTTP — zero lost
# ops, zero leaks, the snapshot fast-path actually serving traffic, the
# per-tenant latency split populated, and the audit chain verifying after
# the deferred read deltas drain. The equivalence/gating/fan-out tests of
# the fast path ride along.
read-smoke:
	$(GO) test -run 'TestReadSmoke|TestConcurrentReadEquivalence|TestFastReadFanned|TestFastReadGating|TestSerialReadsEquivalence|TestStatOps|TestBusyQueueDepthHeader' -v ./internal/server

read-smoke-race:
	$(GO) test -race -run 'TestReadSmoke|TestConcurrentReadEquivalence' -v ./internal/server

# Malicious-client smoke under the race detector: forged/replayed tokens,
# cross-tenant overrides, oversized/forged requests — every attack refused
# with its documented code, zero plaintext leaked, and the hostile traffic
# doubles as a race probe of the admission path.
malice-race:
	$(GO) test -race -run 'TestMaliciousClientSmoke' -v ./internal/server

# SLO-plane smoke: loadgen over real HTTP must leave every tenant with live
# latency quantiles (p50/p99/p999), burn-rate gauges, queue-wait histograms
# and a fully-accounted trace tail sampler on /snapshot.json; the request
# trace waterfall and X-Request-Id propagation tests ride along.
slo-smoke:
	$(GO) test -run 'TestSLOSmoke|TestRequestTraceWaterfall|TestRequestIDHeader|TestErrorTracesAlwaysKept' -v ./internal/server

# Full chaos campaign: >= 1000 seeded faults injected across the encrypted
# datapath (counter blocks, data lines, torn writes, OTT region, audit
# log, counter wrap, crash-at-every-persist-point), 100% detection
# required; exits nonzero on any undetected corruption. Deterministic:
# rerunning the same seed reproduces the campaign byte-for-byte.
chaos:
	$(GO) run ./cmd/fsencr-chaos -seed 1 -faults 1000

# Bounded chaos campaign for the CI gate (same kinds, smaller budget).
chaos-ci:
	$(GO) run ./cmd/fsencr-chaos -seed 1 -faults 150

# Cluster fault campaign: kill the migration source or target at every
# persist point of a live shard migration; every crash point must either
# complete or roll back cleanly — one live owner, no lost acknowledged
# data, no split-brain epoch.
migration-chaos:
	$(GO) run ./cmd/fsencr-chaos -campaign node-crash-during-migration

# Cluster-smoke: the in-process 3-node fabric — concurrent cluster-routed
# load across a live shard migration (zero lost or duplicated ops, stale
# owners forward or 421), a >= 10k-op admission log replayed onto two
# replicas with zero divergence, and a replica failover after the owner
# dies with every acknowledged write intact. The migration-crash campaign
# rides along.
cluster-smoke:
	$(GO) test -run 'TestJoinPlacesFirstNode|TestMigrationUnderLoad|TestReplicationAndFailover|TestReplicaTenKOps' -count 1 -v ./internal/cluster
	$(GO) test -run 'TestMigrationCrashCampaign' -count 1 -v ./internal/chaos

cluster-smoke-race:
	$(GO) test -race -run 'TestJoinPlacesFirstNode|TestMigrationUnderLoad|TestReplicationAndFailover|TestReplicaTenKOps' -count 1 ./internal/cluster
	$(GO) test -race -run 'TestMigrationCrashCampaign' -count 1 ./internal/chaos

vet:
	$(GO) vet ./...

# The paper's figures at full scale (Figures 3 and 8-15, about a minute on
# 2 vCPUs): fsencr-bench exits nonzero if any simulation of any figure
# fails, so a workload that aborts cannot hide behind an earlier figure.
figures:
	$(GO) run ./cmd/fsencr-bench -json figures.json

# Short differential fuzz run of the memctrl datapath: a controller and a
# same-chip twin against a plaintext model, snapshot reads against
# ReadPageInto. Plain `go test` replays the committed seed corpus
# (internal/memctrl/testdata/fuzz/FuzzDatapath) on every run.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDatapath$$' -fuzztime 20s ./internal/memctrl

# Hot-path microbenchmarks (datapath + Merkle write-back + crypto engine +
# kvstore), one iteration batch each — enough for before/after comparisons
# of the fast-path.
bench:
	$(GO) test -run '^$$' -bench 'ReadLine|WriteLine|ReadPage|WritePage' ./internal/memctrl
	$(GO) test -run '^$$' -bench 'MerkleUpdate|MerkleFlush' ./internal/merkle
	$(GO) test -run '^$$' -bench . ./internal/aesctr
	$(GO) test -run '^$$' -bench 'Put|Get' ./internal/kvstore
	$(GO) test -run '^$$' -bench 'ServerReadPath|ServerParallelRead' ./internal/server

# Machine-readable perf baseline: the same hot-path benchmarks, folded
# into BENCH_baseline.json as {"pkg.Benchmark": {iterations, ns_per_op}}
# so later PRs can diff ns/op against this commit.
bench-json:
	@{ \
	  $(GO) test -run '^$$' -bench 'ReadLine|WriteLine|ReadPage|WritePage' ./internal/memctrl ; \
	  $(GO) test -run '^$$' -bench 'MerkleUpdate|MerkleFlush' ./internal/merkle ; \
	  $(GO) test -run '^$$' -bench . ./internal/aesctr ; \
	  $(GO) test -run '^$$' -bench 'Put|Get' ./internal/kvstore ; \
	  $(GO) test -run '^$$' -bench 'ServerReadPath|ServerParallelRead' ./internal/server ; \
	} | awk ' \
	  /^pkg:/ { pkg = $$2 } \
	  /^Benchmark/ { \
	    name = $$1; sub(/-[0-9]+$$/, "", name); \
	    if (!first) first = 1; else printf(",\n"); \
	    printf("  \"%s.%s\": {\"iterations\": %s, \"ns_per_op\": %s}", pkg, name, $$2, $$3); \
	  } \
	  END { print "" } \
	' | { echo '{'; cat; echo '}'; } > BENCH_baseline.json
	@cat BENCH_baseline.json

# Bench-regression gate: rerun the hot-path benchmarks (3 repeats each;
# the comparator keeps the fastest, discarding scheduler noise) and fail
# if any ns/op regressed more than 15% against the committed baseline, or
# if a baseline benchmark disappeared.
bench-check:
	@{ \
	  $(GO) test -run '^$$' -bench 'ReadLine|WriteLine|ReadPage|WritePage' -count 3 ./internal/memctrl ; \
	  $(GO) test -run '^$$' -bench 'MerkleUpdate|MerkleFlush' -count 3 ./internal/merkle ; \
	  $(GO) test -run '^$$' -bench . -count 3 ./internal/aesctr ; \
	  $(GO) test -run '^$$' -bench 'Put|Get' -count 3 ./internal/kvstore ; \
	  $(GO) test -run '^$$' -bench 'ServerReadPath|ServerParallelRead' -count 3 ./internal/server ; \
	} | $(GO) run ./cmd/fsencr-bench -check BENCH_baseline.json -tolerance 0.15

# Telemetry-overhead gate: with no registry attached (the no-op recorder)
# the telemetry hooks on ReadLine/WriteLine must stay under 3% of the
# op's ns/op. TestWriteLineGapGuard rides along: it pins the
# WriteLine/ReadLine ns/op ratio so eager per-write Merkle propagation
# cannot silently return. TestPageGapGuard pins the batched page path at
# no worse than half the host cost of 64 WriteLine calls, so the
# one-fetch/one-key-schedule batching cannot silently degenerate back to
# per-line work. TestAuditOverheadGuard pins the audit plane's disabled
# cost: with auditing off, the page datapath's detached Append hooks must
# stay under 3% of ReadPage/WritePage. TestTraceOverheadGuard pins the
# request-trace plane the same way: with no trace active (scope nil or
# idle), a page op's worth of Active() gates must stay under 3% of
# ReadPage/WritePage. See internal/memctrl/overhead_guard_test.go.
# TestReadScalingGuard is the concurrent-read gate: on >= 4-core hosts,
# 8 readers on one shard must sustain >= 2x single-reader throughput
# through the snapshot fast-path (skipped on smaller hosts).
overhead-guard:
	FSENCR_OVERHEAD_GUARD=1 $(GO) test -run 'TestTelemetryOverheadGuard|TestWriteLineGapGuard|TestPageGapGuard|TestAuditOverheadGuard|TestTraceOverheadGuard' -v ./internal/memctrl
	FSENCR_OVERHEAD_GUARD=1 $(GO) test -run 'TestReadScalingGuard' -v ./internal/server

ci: build vet test figures fuzz-smoke smoke race read-smoke read-smoke-race malice-race slo-smoke chaos-ci cluster-smoke cluster-smoke-race migration-chaos overhead-guard bench-check
