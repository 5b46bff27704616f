GO ?= go

.PHONY: build test vet fmt-check race determinism fuzz-smoke bench bench-events bench-snapshot recovery-smoke saturation-smoke querycentric-smoke scalefull-smoke scale1m-smoke api-freeze obs-overhead-smoke capacity-overhead-smoke ci check clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Fails when any file needs gofmt.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

race:
	$(GO) test -race ./...

# Byte-identical results at 1 vs 8 workers across the experiment runners,
# including the ChurnRepair repair timeline (the golden determinism check
# on overlay maintenance) and the event-engine recovery curve with its
# windowed metric series, plus the observability-plane contract: attaching
# metrics never changes results, and enabled-metrics snapshots/manifest
# fingerprints are identical at any worker count. The snapshot tests extend
# the gate to persistence: a restored network must reproduce the fresh
# build's figures byte for byte, and a damaged snapshot must fail loudly.
# The capacity tests extend it to the overload plane: a flash-crowd
# scenario with shedding and breakers enabled is byte-identical at 1 vs 8
# workers, and a disabled capacity plane is byte-identical to no plane.
# The batch-flood oracles pin the bit-parallel kernel behind the Fig. 8
# success sweep and the coverage table to per-trial floods at 1 and 4
# workers. The shared-dictionary oracles pin a hand-assembled network's
# floods over the dictionary BuildIndexes gives it to lazy per-peer
# dictionaries, and its indexes to one checksum at 1 and 8 workers.
determinism:
	$(GO) test -race -run 'TestWorkerCountDoesNotChangeResults|TestMetricsDoNotChangeResults|TestQueryCentricMetricsInert|TestMetricsSnapshotWorkerInvariance|TestRecoveryWindowWorkerInvariance|TestSnapshotRoundTripMatchesFreshBuild|TestSnapshotLoadFailsLoudlyInEnv' ./internal/experiments/
	$(GO) test -race -run 'TestScenarioDeterministicAndWorkerInvariant|TestCapacityScenarioWorkerInvariant|TestCapacityDisabledIsInert' ./internal/events/
	$(GO) test -race -run 'TestBatchFloodMatchesCoverage|TestCoverageStatsMatchPerTTLFloods' ./internal/overlay/
	$(GO) test -race -run 'TestSuccessRateMatchesPerTrialFloods' ./internal/search/
	$(GO) test -race -run 'TestSharedDictMatchesPerPeerDicts|TestSharedDictWorkerInvariant' ./internal/gnet/

# Short fuzz of the wire-message decoder, the churn-timeline generator,
# the varint posting codec and the snapshot loader: five seconds of
# mutation each must surface no panics, over-reads or contract violations
# (ordering, alternation, determinism, round-trip identity, typed errors
# on damaged bytes).
fuzz-smoke:
	$(GO) test -fuzz=FuzzDecodeMessage -fuzztime=5s -run '^$$' ./internal/gmsg
	$(GO) test -fuzz=FuzzTimelineConfig -fuzztime=5s -run '^$$' ./internal/churn
	$(GO) test -fuzz=FuzzVarintPostings -fuzztime=5s -run '^$$' ./internal/vpost
	$(GO) test -fuzz=FuzzSnapshotLoad -fuzztime=5s -run '^$$' ./internal/snapshot

# Flood hot-path, parallel-engine and term-index measurements ->
# out/BENCH_flood.json (the index section compares interned vs legacy
# string indexes at the default scale).
bench:
	$(GO) run ./cmd/qc-bench -o out/BENCH_flood.json -scale small -index-scale default

# Discrete-event engine throughput -> out/BENCH_events.json: queue-dispatch
# micro-benchmarks plus a full steady-state scenario at the small scale.
bench-events:
	$(GO) run ./cmd/qc-bench -events -o out/BENCH_events.json -scale small

# Snapshot persistence round trip -> out/BENCH_snapshot.json: build the
# default-scale network, save it, load it back — down both the copying
# read path and the zero-copy memory-mapped path — verify the restored
# index checksums and report save/load wall-clock, file size and how far
# the varint arenas compress the postings.
bench-snapshot:
	$(GO) run ./cmd/qc-bench -index-only -index-scale default -index-legacy=false \
		-snapshot-file out/net_default.qcsnap -o out/BENCH_snapshot.json

# Recovery smoke: a tiny-scale correlated-crash run through the CLI must end
# with the repaired overlay no worse than the unrepaired one.
recovery-smoke:
	@$(GO) run ./cmd/qc-sim -mode recovery -scale tiny | awk ' \
		$$1 == "#" && $$2 == "final_success" { rep = $$3; norep = $$4 } \
		END { \
			if (rep == "" || norep == "") { print "recovery-smoke: final_success row missing"; exit 1 }; \
			if (rep + 0 < norep + 0) { printf "recovery-smoke: FAIL repaired %s < no-repair %s\n", rep, norep; exit 1 }; \
			printf "recovery-smoke: ok (repaired %s >= no-repair %s)\n", rep, norep }'

# Saturation smoke: the tiny-scale flash-crowd sweep through the CLI must
# show TTL-aware shedding retaining at least 2x drop-tail's success at the
# highest swept load (loads ascend, so each arm's last table row is its
# peak). The companion inertness half of the contract — disabled-capacity
# runs byte-identical to a build without the plane — is the race-checked
# test alongside it (also part of `make determinism`).
saturation-smoke:
	@$(GO) run ./cmd/qc-sim -mode saturation -scale tiny | awk ' \
		$$1 == "ttl" { t = $$3 } \
		$$1 == "drop-tail" { d = $$3 } \
		END { \
			if (t == "" || d == "") { print "saturation-smoke: ttl or drop-tail rows missing"; exit 1 }; \
			if (t + 0 < 2 * d) { printf "saturation-smoke: FAIL ttl peak success %s < 2x drop-tail %s\n", t, d; exit 1 }; \
			printf "saturation-smoke: ok (ttl peak success %s >= 2x drop-tail %s)\n", t, d }'
	$(GO) test -run 'TestCapacityDisabledIsInert' ./internal/events/

# Query-centric smoke: the tiny-scale five-arm head-to-head through the
# CLI must show the adaptive overlay recovering at least 2x static
# flooding's TTL-3 success at no extra message cost — the paper's
# constructive claim as a CI gate. The companion determinism half of the
# contract — the full adaptation loop byte-identical at 1 vs 8 workers
# and metrics-attach changing nothing — runs as the race-checked tests
# alongside it (the worker-invariance leg is also part of
# `make determinism`).
querycentric-smoke:
	@$(GO) run ./cmd/qc-sim -mode query-centric -scale tiny | awk ' \
		$$1 == "static-flood" { ss = $$2; sm = $$3 } \
		$$1 == "adaptive" { as = $$2; am = $$3 } \
		END { \
			if (ss == "" || as == "") { print "querycentric-smoke: static-flood or adaptive rows missing"; exit 1 }; \
			if (as + 0 < 2 * ss) { printf "querycentric-smoke: FAIL adaptive success %s < 2x static %s\n", as, ss; exit 1 }; \
			if (am + 0 > sm + 0) { printf "querycentric-smoke: FAIL adaptive msgs/query %s > static %s\n", am, sm; exit 1 }; \
			printf "querycentric-smoke: ok (success %s >= 2x static %s at %s <= %s msgs/query)\n", as, ss, am, sm }'
	$(GO) test -race -run 'TestQueryCentricMetricsInert|TestWorkerInvariance' ./internal/experiments/ ./internal/adaptive/

# Paper-scale construction smoke: build the ScaleFull catalog + network +
# interned indexes (no trials, no legacy twin) under a wall-clock budget so
# regressions that push 37k-peer / 8.1M-object construction out of a CI-able
# budget are caught without running full experiments. The budget leaves
# ~2x headroom over the measured single-CPU build (see BENCH_index_full.json).
# The snapshot leg saves the built network, loads it back — copying and
# memory-mapped — and fails unless the restored checksums match, the
# copying load takes at most a tenth of the build, and the mapped load
# beats the copying one. The -sharded leg reruns the whole construction
# through the shard-and-spill pipeline and fails unless its file is
# byte-identical to the in-heap save (the paper-scale identity gate).
scalefull-smoke:
	$(GO) run ./cmd/qc-bench -index-only -index-scale full -index-legacy=false \
		-budget 10m -sharded -shard-size 8192 \
		-snapshot-file out/net_full.qcsnap -o out/BENCH_index_full.json

# Million-peer substrate smoke: shard-and-spill a 1,000,000-peer network
# straight into a snapshot (the substrate never fits on the heap — peak
# memory is one 65,536-peer shard plus the shared dictionary), restore it
# zero-copy through the memory mapping, probe it with real floods, and
# fail if build+load exceed the wall-clock budget or process peak RSS
# (VmHWM) exceeds the ceiling. Budget and ceiling leave ~2x headroom over
# the measured single-CPU run (see BENCH_index_1m.json).
scale1m-smoke:
	$(GO) run ./cmd/qc-bench -sharded-only -index-scale 1m -shard-size 65536 \
		-budget 6m -rss-ceiling-mb 6144 \
		-snapshot-file out/net_1m.qcsnap -o out/BENCH_index_1m.json

# Regenerate-and-diff check on the frozen public API surface (API.txt).
# Regenerate after an intentional API change with:
#   go test -run TestAPIFrozen -update-api .
api-freeze:
	$(GO) test -run 'TestAPIFrozen|TestNoInternalImportsOutsideFacade' .

# Metrics-overhead smoke: the flood hot path with a live registry attached
# must stay within 10% of the detached baseline (or the recorded flood_ctx
# row in out/BENCH_flood.json, whichever is looser).
obs-overhead-smoke:
	$(GO) run ./cmd/qc-bench -obs-overhead -peers 500 -benchtime 100ms \
		-o out/BENCH_flood.json

# Capacity-overhead smoke: floods with the capacity plane attached but
# disabled must stay within 5% of the no-plane baseline (or the recorded
# flood_ctx row, whichever is looser) — the inert-by-default contract as a
# perf gate. The enabled-unbounded cost is reported but not budgeted.
capacity-overhead-smoke:
	$(GO) run ./cmd/qc-bench -capacity-overhead -peers 500 -benchtime 100ms \
		-o out/BENCH_flood.json

# The CI gate: static checks, formatting, a clean build, the full suite
# under the race detector, the workers=8 determinism regression, the
# decoder, churn-timeline, posting-codec and snapshot-loader fuzz smokes,
# the fault-burst recovery smoke, the flash-crowd saturation smoke, the
# query-centric adaptive-overlay smoke, the API freeze, the metrics- and
# capacity-overhead smokes, the paper-scale construction smoke (with the
# sharded byte-identity gate) and the million-peer sharded-construction
# smoke.
ci: vet fmt-check build race determinism fuzz-smoke recovery-smoke saturation-smoke querycentric-smoke api-freeze obs-overhead-smoke capacity-overhead-smoke scalefull-smoke scale1m-smoke

check: ci

clean:
	$(GO) clean ./...
	rm -f out/*.qcsnap
