GO ?= go

.PHONY: verify fmt build vet test race fuzzsmoke benchsmoke benchrepo figures loc

# The CI gate: formatting, build, vet, the whole test suite under the
# race detector (no test in the repo is short-mode gated: `grep -rn
# 'testing.Short()'` is empty) and a few seconds of live fuzzing over
# every decoder. The suite includes TestFigureTablePinned, which runs
# every dmbench figure at 65² — the fault-tolerance figure among them —
# and fails on any moved disk-access, byte, page or cache count. Gates
# that were -run subsets of `race` are gone; to iterate on one area, run
# its package: `go test -race ./internal/cluster/`.
verify: fmt build vet race fuzzsmoke

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
	$(GO) test -race ./...

# Fuzz smoke: a few seconds of live fuzzing over every decoder. The
# shared harness (FuzzDecoders: DMTW, DMTP, DMPS and packed records behind
# one table, first input byte selects the format) asserts that nothing
# panics, every rejection is wire.ErrCorrupt (or ErrTruncated for a DMPS
# stream that merely ends) and whatever decodes re-encodes to its own
# bytes; the three per-codec targets keep their checked-in corpora, and
# FuzzStitchDecoded goes one layer up: whatever tile bodies decode must
# stitch without panicking, within an allocation bound, into an ascending
# mesh. FuzzReadDEM covers the two parsers of outside files, the ASCII
# grid and XYZ readers dmbuild -dem/-xyz use: no panic, allocation bounded
# by the input whatever a header claims, finite coordinates out.
# FuzzMeshJSON is the one encoder target: the /tile and /frame bodies
# serve writes by hand must be json.Marshal's bytes, or its error, for any
# IDs, floats and session name. FuzzBTreePages and FuzzRTreePages are the
# targets over store pages: each overwrites bytes of a tree its package
# wrote (a B+-tree from btree.Build, an R*-tree from rtree.BulkLoad), meta
# page included, and asserts that Open and the tree's readers (Get, Range
# and Height; Search and Nodes) neither panic nor walk without end, and
# allocate within a bound. New coverage is minimized on a short
# leash so the seconds go to fuzzing.
# Longer explorations just raise -fuzztime.
fuzzsmoke:
	$(GO) test -fuzz 'FuzzDecoders' -fuzztime 5s -fuzzminimizetime 1s -run '^FuzzDecoders$$' ./internal/wire/
	$(GO) test -fuzz 'FuzzTraceWireDecode' -fuzztime 5s -fuzzminimizetime 1s -run '^FuzzTraceWireDecode$$' ./internal/obs/
	$(GO) test -fuzz 'FuzzPackedRecordDecode' -fuzztime 5s -fuzzminimizetime 1s -run '^FuzzPackedRecordDecode$$' ./internal/dm/
	$(GO) test -fuzz 'FuzzTilePatchDecode' -fuzztime 5s -fuzzminimizetime 1s -run '^FuzzTilePatchDecode$$' ./internal/dm/
	$(GO) test -fuzz 'FuzzStitchDecoded' -fuzztime 5s -fuzzminimizetime 1s -run '^FuzzStitchDecoded$$' ./internal/dm/
	$(GO) test -fuzz 'FuzzReadDEM' -fuzztime 5s -fuzzminimizetime 1s -run '^FuzzReadDEM$$' ./internal/demio/
	$(GO) test -fuzz 'FuzzMeshJSON' -fuzztime 5s -fuzzminimizetime 1s -run '^FuzzMeshJSON$$' ./internal/serve/
	$(GO) test -fuzz 'FuzzBTreePages' -fuzztime 5s -fuzzminimizetime 1s -run '^FuzzBTreePages$$' ./internal/storage/btree/
	$(GO) test -fuzz 'FuzzRTreePages' -fuzztime 5s -fuzzminimizetime 1s -run '^FuzzRTreePages$$' ./internal/rtree/

# One-iteration pass over the packages' micro-benchmarks: proves each
# still runs without paying for statistically meaningful timings (the CI
# smoke). The paper's metric is not among them: every disk-access count,
# the ablations' included, is a row of the figure table that
# TestFigureTablePinned pins.
benchsmoke:
	$(GO) test -bench=. -benchtime=1x -run '^$$' ./...

# Repository-benchmark smoke: the harness under bench/ (the program
# BENCHMARK.json names) must still compile against the library's public
# surface, pass its own tests, and complete a one-second run of each of
# the five workloads with every answer verified and every separation
# guard ok — so a change that breaks any of those fails here rather than
# in the benchmark driver. churn_tile is the one workload where
# materialize, evict and stitch run together, and its hit-ratio guard is
# what notices TilePatch.Bytes() or the eviction order moving;
# flyover_frame is the one that drives coherent sessions, and its
# full_frac guard is what notices the delta-versus-full decision moving;
# cold_direct is the only one that drives MultiBase, the file-backed fetch
# path and the lifted assembler cold, and its da_per_op_gt_20 guard is
# what notices a query that stopped reading the store; progressive_stream
# is the only one that drives Router.Stream and the DMPS codec, and its
# first_mesh_lt_half_op guard is what notices a first batch that stopped
# arriving well before the exact mesh. Not part of `make verify`; CI runs
# it after benchsmoke. Output lands under results/, which is git-ignored.
benchrepo:
	$(GO) vet ./bench
	$(GO) test ./bench
	$(GO) run ./bench -workload hot_patch -seed 1 -seconds 1 -out results/bench-smoke
	$(GO) run ./bench -workload churn_tile -seed 1 -seconds 1 -out results/bench-smoke
	$(GO) run ./bench -workload flyover_frame -seed 1 -seconds 1 -out results/bench-smoke
	$(GO) run ./bench -workload cold_direct -seed 1 -seconds 1 -out results/bench-smoke
	$(GO) run ./bench -workload progressive_stream -seed 1 -seconds 1 -out results/bench-smoke

# Full-scale figure reproduction (several minutes); output under results/.
figures:
	$(GO) run ./cmd/dmbench -fig all

# The three line totals ROADMAP.md and CHANGES.md quote: non-test Go
# outside bench/, test Go outside bench/, and the Go under bench/. A
# report, not a gate.
loc:
	@printf 'non-test Go outside bench/: '; find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l
	@printf 'test Go outside bench/:     '; find . -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l
	@printf 'bench/:                     '; find ./bench -name '*.go' | xargs cat | wc -l
