GO ?= go

.PHONY: verify fmt build vet test race racecache chaos obssmoke layoutcheck packcheck clustercheck streamcheck obstracecheck fuzzsmoke benchdiff bench benchsmoke benchrepo figures

# The CI gate: formatting, build, vet, and the full test suite under the
# race detector (short mode keeps the large-terrain tests out of the
# loop), plus a non-short race pass over the concurrent tile cache, the
# small-scale chaos run, the observability smoke over the tileserver
# introspection endpoints, the physical-layout equivalence gate, the
# packed-encoding gate, the sharded-cluster gate, the progressive-
# streaming gate, the distributed-tracing gate, the decoder fuzz smoke,
# and the benchmark regression gate.
verify: fmt build vet race racecache chaos obssmoke layoutcheck packcheck clustercheck streamcheck obstracecheck fuzzsmoke benchdiff

# gofmt cleanliness: fails listing the offending files, fixes nothing.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# The tile cache is the most concurrent subsystem (singleflight,
# eviction, invalidation racing queries); run its full suite — including
# tests a -short pass would skip — under the race detector.
racecache:
	$(GO) test -race -count=1 ./internal/tilecache/

# Chaos gate: the fault-tolerance figure at small scale. dmbench exits
# nonzero if any query under injected read failures / bit flips panics
# or returns an answer that differs from the clean oracle store.
chaos:
	$(GO) run ./cmd/dmbench -fig faults -size 65 -size2 65

# Observability smoke: boots the tileserver stack under httptest and
# exercises /metrics, /slowlog and /debug/vars, including the per-phase
# disk-access attribution invariant visible in the slow log.
obssmoke:
	$(GO) test -count=1 ./examples/tileserver/

# Layout equivalence gate: every physical layout — including stores
# rewritten by the offline repack pass — must answer every query kind
# byte-identically, and the reconstruction anchor must hold on all of
# them. Physical placement changes cost, never answers.
layoutcheck:
	$(GO) test -count=1 -run 'ExactAgainstReplay|Layout|Repack|Connect|OverflowChains' ./internal/dm/

# Packed-encoding gate: the compressed record codec must round-trip
# every IEEE-754 bit pattern exactly, reject corruption with ErrCorrupt
# (fuzz seeds included), keep spilled chains co-located, beat the plain
# variable encoding's page density by >=1.7x, and survive the persist /
# version-gate paths. The decoder fuzz seeds run as part of the suite; a
# longer exploration is `go test -fuzz FuzzPackedRecordDecode ./internal/dm/`.
packcheck:
	$(GO) test -count=1 -run 'Packed|Dyadic' ./internal/dm/
	$(GO) test -count=1 -run 'SweepLayouts' ./internal/experiments/

# Cluster gate: the serving core and the sharded tile cluster under the
# race detector — ring determinism and balance, byte-identical answers
# against a single-node cache (including with a shard killed), failover
# accounting (every redirect counted, zero wrong answers), deterministic
# hot-tile replication, and graceful shutdown draining in-flight fetches.
clustercheck:
	$(GO) test -race -count=1 ./internal/serve/ ./internal/cluster/

# Progressive-streaming gate: the wire codec under the race detector —
# every batch prefix decodes to a valid mesh, the full stream decodes
# exactly equal to the direct query on both datasets, truncation at any
# byte offset is resumable, corruption rejected with ErrCorrupt — plus
# the serve/cluster streaming paths (byte-identical /stream bodies,
# truncated-body failover, Content-Length on every fixed-size response)
# and the tile-wire decoder fuzz seeds. A longer exploration is
# `go test -fuzz FuzzTilePatchDecode ./internal/dm/`.
streamcheck:
	$(GO) test -race -count=1 ./internal/stream/
	$(GO) test -race -count=1 -run 'Stream|Truncated|ContentLength' ./internal/serve/ ./internal/cluster/
	$(GO) test -count=1 -run FuzzTilePatchDecode ./internal/dm/

# Distributed-tracing gate: the trace wire codec and the cross-hop
# accounting invariant under the race detector — round trips, corrupt
# rejection, SpliceRemote charging, the shard /patch and /stream trace
# attachments, the router splice (including with a shard killed
# mid-workload), the cluster metric merge, and the concurrent slow log
# carrying wire traces.
obstracecheck:
	$(GO) test -race -count=1 -run 'TraceWire|SpliceRemote|Traced|PatchTrace|StreamTrace|Prom|LatencyHist|Health|SlowLog' \
		./internal/obs/ ./internal/serve/ ./internal/cluster/

# Fuzz smoke: a few seconds of live fuzzing over each untrusted-input
# decoder — the trace wire, the packed record codec, and the tile wire.
# None may panic; all must reject corruption with their layer's
# ErrCorrupt. Longer explorations just raise -fuzztime.
fuzzsmoke:
	$(GO) test -fuzz 'FuzzTraceWireDecode' -fuzztime 5s -run '^FuzzTraceWireDecode$$' ./internal/obs/
	$(GO) test -fuzz 'FuzzPackedRecordDecode' -fuzztime 5s -run '^FuzzPackedRecordDecode$$' ./internal/dm/
	$(GO) test -fuzz 'FuzzTilePatchDecode' -fuzztime 5s -run '^FuzzTilePatchDecode$$' ./internal/dm/

# Benchmark regression gate: regenerate the tracing figure at the gate
# scale (129-point grids keep it under CI budgets) into results/gate and
# diff it against the checked-in baselines under results/baselines.
# dmbenchdiff exits nonzero when a disk-access or byte metric drifts
# beyond tolerance; timing metrics are ignored (they measure the
# machine). The full-scale baselines for the other figures live in the
# same directory and are compared whenever their BENCH_*.json is
# regenerated into the gate directory at the baseline's scale.
benchdiff:
	$(GO) run ./cmd/dmbench -fig obstrace -size 129 -size2 129 -resultdir results/gate
	$(GO) run ./cmd/dmbenchdiff -baseline results/baselines -current results/gate

# The paper's metric: custom DA/... counters, not ns/op. Runs the unit
# suite first (a benchmark of broken code measures nothing); -run '^$$'
# keeps the tests out of the timed benchmark binary itself.
bench: test
	$(GO) test -bench=. -benchmem -run '^$$'

# One-iteration benchmark pass: proves every benchmark still runs
# without paying for statistically meaningful timings (the CI smoke).
benchsmoke:
	$(GO) test -bench=. -benchtime=1x -run '^$$' ./...

# Repository-benchmark smoke: the harness under bench/ (the program
# BENCHMARK.json names) must still compile against the library's public
# surface, pass its own tests, and complete a one-second hot_patch run
# with every answer verified and every separation guard ok — so a change
# that breaks any of those fails here rather than in the benchmark
# driver. Not part of `make verify`; CI runs it after benchsmoke. Output
# lands under results/, which is git-ignored.
benchrepo:
	$(GO) vet ./bench
	$(GO) test ./bench
	$(GO) run ./bench -workload hot_patch -seed 1 -seconds 1 -out results/bench-smoke

# Full-scale figure reproduction (several minutes); output under results/.
figures:
	$(GO) run ./cmd/dmbench -fig all
