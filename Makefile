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
FUZZTIME ?= 5s

fuzz-smoke:
	@set -e; for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test $$pkg -list '^Fuzz' | grep '^Fuzz' || true); do \
			echo "fuzz $$pkg $$target"; \
			$(GO) test $$pkg -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME); \
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
INGEST_BENCH = BenchmarkPredictorIngest$$|BenchmarkPredictorIngestBatch|BenchmarkLabelerSteadyState|BenchmarkUpdateBatch|BenchmarkEngineIngestBatch|BenchmarkRecordCodec|BenchmarkStateCodec

bench: bench-ingest bench-predict bench-replicate bench-snapshot

bench-ingest:
	$(GO) test . -run '^$$' -bench '$(INGEST_BENCH)' -benchmem -count=5 -benchtime=2s \
		| $(GO) run ./cmd/benchjson -o BENCH_ingest.json

# Read-path perf baseline: frozen-snapshot scoring vs the live forest.
# internal/core's BenchmarkScoreFrozen isolates the tree walk at fleet
# scale; the root package's BenchmarkPredictScore/BenchmarkEngineScore
# measure the end-to-end model and engine paths (idle and under
# concurrent ingest). Separate output file so refreshing one baseline
# never clobbers the other.
PREDICT_BENCH = BenchmarkScoreFrozen|BenchmarkRefreeze|BenchmarkPredictScore|BenchmarkEngineScore

# The mode-split benchmarks (batch-size sweep, refreeze cost) prefix
# their sub-names with the forest-size regime they ran in (full/, or
# smoke/ under -short). bench-predict records BOTH regimes into
# BENCH_predict.json — the full numbers are the headline baseline, the
# smoke numbers exist so bench-predict-smoke can gate a cheap -short
# re-run against entries measured on the same forest size.
PREDICT_BATCH_BENCH = BenchmarkScoreFrozenBatch|BenchmarkRefreeze|BenchmarkPredictScoreBatch|BenchmarkEngineScoreBatch

bench-predict:
	( $(GO) test ./internal/core . -run '^$$' -bench '$(PREDICT_BENCH)' -benchmem -count=5 -benchtime=1s -timeout 30m && \
	  $(GO) test ./internal/core . -run '^$$' -short -bench '$(PREDICT_BATCH_BENCH)' -benchmem -count=5 -benchtime=1s -timeout 30m ) \
		| $(GO) run ./cmd/benchjson -o BENCH_predict.json

# Read-path smoke: a one-iteration pass proves every benchmark still
# compiles and runs, then the mode-split batch benchmarks re-measure in
# the smoke regime and gate against the committed baseline's /smoke/
# entries — >25% ns/op (or any allocs/op) regression fails the build.
bench-predict-smoke:
	$(GO) test ./internal/core . -run '^$$' -short -bench '$(PREDICT_BENCH)' -benchtime=1x
	$(GO) test ./internal/core . -run '^$$' -short -bench '$(PREDICT_BATCH_BENCH)' -benchmem -count=3 -benchtime=1s -timeout 15m \
		| $(GO) run ./cmd/benchjson -check BENCH_predict.json -match '/smoke/' -tol 0.25

# Replication-path perf baseline: live-tail shipping throughput (async
# and per-write synchronous-commit variants) and the cold-follower
# catch-up (restart) path. Records BOTH regimes — full (headline
# numbers) and smoke (the -short sizes bench-replicate-smoke gates
# against) — into BENCH_replicate.json.
REPLICATE_BENCH = BenchmarkReplicationShip|BenchmarkFollowerCatchup

bench-replicate:
	( $(GO) test ./internal/replica -run '^$$' -bench '$(REPLICATE_BENCH)' -benchmem -count=5 -benchtime=1s && \
	  $(GO) test ./internal/replica -run '^$$' -short -bench '$(REPLICATE_BENCH)' -benchmem -count=5 -benchtime=1s ) \
		| $(GO) run ./cmd/benchjson -o BENCH_replicate.json

# Replication smoke gate: re-measure the smoke regime (small catch-up
# backlog, same ship paths — sync-ack variant included) and fail on a
# >25% ns/op regression against the committed baseline's /smoke/
# entries.
bench-replicate-smoke:
	$(GO) test ./internal/replica -run '^$$' -short -bench '$(REPLICATE_BENCH)' -benchmem -count=3 -benchtime=1s \
		| $(GO) run ./cmd/benchjson -check BENCH_replicate.json -match '/smoke/' -tol 0.25

# Historical-replay perf baseline: the cmd/orfload backfill pipeline
# (parallel readers + chronological merge + scoring-free batched
# ingest), its naive single-goroutine Ingest baseline, and post-kill
# recovery replay. Records BOTH corpus regimes — full (headline numbers)
# and smoke (the CI-sized corpus bench-replay-smoke gates against) —
# into BENCH_replay.json. No -benchmem: each op spins up and tears down
# a whole engine, so allocs/op is scheduler noise here; rows/s and MB/s
# are the metrics that matter.
REPLAY_BENCH = BenchmarkBackfillPipeline|BenchmarkBackfillNaive|BenchmarkBackfillRecovery

bench-replay:
	( $(GO) test ./internal/backfill -run '^$$' -bench '$(REPLAY_BENCH)' -count=5 -benchtime=1x -timeout 60m && \
	  $(GO) test ./internal/backfill -run '^$$' -short -bench '$(REPLAY_BENCH)' -count=5 -benchtime=1x -timeout 30m ) \
		| $(GO) run ./cmd/benchjson -o BENCH_replay.json

# Replay smoke gate: re-measure the smoke-corpus regime and fail on a
# >25% ns/op regression against the committed baseline's /smoke/
# entries.
bench-replay-smoke:
	$(GO) test ./internal/backfill -run '^$$' -short -bench '$(REPLAY_BENCH)' -count=3 -benchtime=1x -timeout 30m \
		| $(GO) run ./cmd/benchjson -check BENCH_replay.json -match '/smoke$$' -tol 0.25

# Snapshot-codec perf baseline: one full serialize/parse of a trained
# forest per op, across the two on-disk codecs — orf2-flate (the
# parallel-compressed production format) and orf2-raw (same framing,
# passthrough codec: the uncompressed baseline). snap_bytes in the JSON
# records the encoded sizes the compression is accepted against (>= 2x
# smaller than raw). Records BOTH forest regimes — full (headline) and
# smoke (what bench-snapshot-smoke gates against) — into
# BENCH_snapshot.json.
SNAPSHOT_BENCH = BenchmarkSnapshotEncode|BenchmarkSnapshotDecode

bench-snapshot:
	( $(GO) test ./internal/core -run '^$$' -bench '$(SNAPSHOT_BENCH)' -benchmem -count=5 -benchtime=1s && \
	  $(GO) test ./internal/core -run '^$$' -short -bench '$(SNAPSHOT_BENCH)' -benchmem -count=5 -benchtime=1s ) \
		| $(GO) run ./cmd/benchjson -o BENCH_snapshot.json

# Snapshot smoke gate: re-measure the smoke-forest regime and fail on a
# >25% ns/op regression against the committed baseline's /smoke
# entries.
bench-snapshot-smoke:
	$(GO) test ./internal/core -run '^$$' -short -bench '$(SNAPSHOT_BENCH)' -benchmem -count=3 -benchtime=1s \
		| $(GO) run ./cmd/benchjson -check BENCH_snapshot.json -match '/smoke$$' -tol 0.25

# Smoke-run every benchmark in the repo (one iteration each): catches
# benchmarks that no longer compile or crash, measures nothing.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

fmt:
	gofmt -l -w .
