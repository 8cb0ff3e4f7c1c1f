# Developer / CI entry points. `make check` is the full gate.

GO ?= go

.PHONY: check vet vet-orfbench test-orfbench orphans e2e-smoke fuzz-smoke build test race bench bench-ingest bench-predict bench-predict-smoke bench-replicate bench-replicate-smoke bench-replay bench-replay-smoke bench-snapshot bench-snapshot-smoke bench-smoke fmt

check: vet vet-orfbench test-orfbench orphans e2e-smoke build test race bench-predict-smoke bench-replicate-smoke bench-replay-smoke bench-snapshot-smoke

vet:
	$(GO) vet ./...

# Every library package must be linked into some binary under cmd/; one
# that no binary reaches is dead code however well it is tested. Prints
# each orphan and fails. The one exemption, internal/gbdt, is reached
# only by BenchmarkAblationForestVsGBDT, which produces the forest vs
# GBDT row of EXPERIMENTS.md "Throughput" (the paper's section 3
# time-efficiency argument).
ORPHANS_EXEMPT = orfdisk/internal/gbdt

orphans:
	@pkgs=$$($(GO) list ./...) && deps=$$($(GO) list -deps ./cmd/...) || exit 1; \
	orphans=$$(echo "$$pkgs" | grep -v -e '/cmd/' -e '/examples/' \
		| grep -v -x -F -e '$(ORPHANS_EXEMPT)' | grep -v -x -F -e "$$deps"); \
	if [ -n "$$orphans" ]; then echo "packages no binary under cmd/ links:"; echo "$$orphans"; exit 1; fi

# cmd/orfbench is its own module (the benchmark must build from a bare
# checkout), so ./... above never type-checks it against the product: an
# API break would first show up as a failed benchmark run. Vet it here.
vet-orfbench:
	$(GO) vet -C cmd/orfbench .

# orfbench's own tests (TestBenchmarkJSONMatchesTheHarness among them),
# which ./... never reaches either.
test-orfbench:
	$(GO) test -C cmd/orfbench .

# The only end-to-end check: builds the five binaries, drives the four
# orfbench workloads untraced and traced on ~20k rows through the real
# processes, and fails on a failed operation or an oracle mismatch
# (under a minute; measures nothing).
e2e-smoke:
	bash bench/run.sh -all -short

# Every Fuzz* target in the repo for a few seconds each, one go test
# invocation apiece (-fuzz takes a single target). The seed corpora
# already run under plain `go test`; this is the part that mutates.
# Minimizing a new find stops the exec count, for up to a minute by
# default, so it is held to a second to leave the budget for fuzzing.
FUZZTIME ?= 5s

fuzz-smoke:
	@set -e; for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test $$pkg -list '^Fuzz' | grep '^Fuzz' || true); do \
			echo "fuzz $$pkg $$target"; \
			$(GO) test $$pkg -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) -fuzzminimizetime 1s; \
		done; \
	done

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Ingest/serving perf baseline: run the allocation-sensitive hot-path
# benchmarks 5x and record the per-benchmark minimum in
# BENCH_ingest.json (see cmd/benchjson). Commit the refreshed file when
# a PR moves these numbers so the perf trajectory stays reviewable. The
# two codec benchmarks also record the exact sizes a row and a saved
# state take (B/row, state_bytes).
INGEST_BENCH = BenchmarkPredictorIngest$$|BenchmarkLabelerSteadyState|BenchmarkUpdateBatch|BenchmarkEngineIngestBatch|BenchmarkRecordCodec|BenchmarkStateCodec

bench: bench-ingest bench-predict bench-replicate bench-snapshot

bench-ingest:
	$(GO) test . -run '^$$' -bench '$(INGEST_BENCH)' -benchmem -count=5 -benchtime=2s \
		| $(GO) run ./cmd/benchjson -o BENCH_ingest.json

# $(call bench-pair,NAME,PKGS,BENCH,SMOKE_BENCH,FLAGS,SMOKE_FLAGS,GATE_FLAGS,MATCH[,FIRST])
# defines two targets. bench-NAME records BENCH over PKGS with FLAGS,
# then SMOKE_BENCH in the -short (smoke) regime with SMOKE_FLAGS, into
# BENCH_NAME.json: the full numbers are the headline baseline, the smoke
# ones what the gate compares against. bench-NAME-smoke runs FIRST when
# given, then re-measures SMOKE_BENCH with GATE_FLAGS and fails on a >25%
# ns/op regression against the committed entries matching MATCH. `$$$$`
# in an argument is one `$` in the recipe; cont is a recipe line break,
# which a define would fold into a space if written in place.
define nl


endef
cont := \$(nl)
define bench-pair
bench-$(1):
	( $$(GO) test $(2) -run '^$$$$' -bench '$(3)' $(5) && $(cont)	  $$(GO) test $(2) -run '^$$$$' -short -bench '$(4)' $(6) ) $(cont)		| $$(GO) run ./cmd/benchjson -o BENCH_$(1).json

bench-$(1)-smoke:
	$(9)
	$$(GO) test $(2) -run '^$$$$' -short -bench '$(4)' $(7) $(cont)		| $$(GO) run ./cmd/benchjson -check BENCH_$(1).json -match '$(8)' -tol 0.25
endef

# Read path: frozen-snapshot scoring vs the live forest. internal/core's
# BenchmarkScoreFrozen isolates the tree walk at fleet scale; the root
# package's BenchmarkPredictScore/BenchmarkEngineScore measure the model
# and engine paths (idle and under concurrent ingest). The mode-split
# batch benchmarks prefix their sub-names with their forest-size regime
# (full/, or smoke/ under -short); the smoke target first runs every
# read-path benchmark once, proving each still compiles and runs.
PREDICT_BENCH = BenchmarkScoreFrozen|BenchmarkRefreeze|BenchmarkPredictScore|BenchmarkEngineScore
PREDICT_BATCH_BENCH = BenchmarkScoreFrozenBatch|BenchmarkRefreeze|BenchmarkPredictScoreBatch|BenchmarkEngineScoreBatch
$(eval $(call bench-pair,predict,./internal/core .,$$(PREDICT_BENCH),$$(PREDICT_BATCH_BENCH),-benchmem -count=5 -benchtime=1s -timeout 30m,-benchmem -count=5 -benchtime=1s -timeout 30m,-benchmem -count=3 -benchtime=1s -timeout 15m,/smoke/,$$(GO) test ./internal/core . -run '^$$$$' -short -bench '$$(PREDICT_BENCH)' -benchtime=1x))

# Replication path: live-tail shipping (async and per-write synchronous
# commit) and the cold-follower catch-up (restart) path.
REPLICATE_BENCH = BenchmarkReplicationShip|BenchmarkFollowerCatchup
$(eval $(call bench-pair,replicate,./internal/replica,$$(REPLICATE_BENCH),$$(REPLICATE_BENCH),-benchmem -count=5 -benchtime=1s,-benchmem -count=5 -benchtime=1s,-benchmem -count=3 -benchtime=1s,/smoke/))

# Historical replay: the cmd/orfload backfill pipeline (parallel readers,
# chronological merge, scoring-free batched ingest), its naive
# single-goroutine Ingest baseline, and post-kill recovery replay. No
# -benchmem: each op spins up and tears down a whole engine, so allocs/op
# is scheduler noise here; rows/s and MB/s are the metrics that matter.
REPLAY_BENCH = BenchmarkBackfillPipeline|BenchmarkBackfillNaive|BenchmarkBackfillRecovery
$(eval $(call bench-pair,replay,./internal/backfill,$$(REPLAY_BENCH),$$(REPLAY_BENCH),-count=5 -benchtime=1x -timeout 60m,-count=5 -benchtime=1x -timeout 30m,-count=3 -benchtime=1x -timeout 30m,/smoke$$$$))

# Snapshot codec: one full serialize/parse of a trained forest per op in
# orf2-flate (the parallel-compressed production format) and orf2-raw
# (same framing, passthrough codec). snap_bytes in the JSON records the
# encoded sizes the compression is accepted against (>= 2x smaller).
SNAPSHOT_BENCH = BenchmarkSnapshotEncode|BenchmarkSnapshotDecode
$(eval $(call bench-pair,snapshot,./internal/core,$$(SNAPSHOT_BENCH),$$(SNAPSHOT_BENCH),-benchmem -count=5 -benchtime=1s,-benchmem -count=5 -benchtime=1s,-benchmem -count=3 -benchtime=1s,/smoke$$$$))

# Smoke-run every benchmark in the repo (one iteration each): catches
# benchmarks that no longer compile or crash, measures nothing.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

fmt:
	gofmt -l -w .
