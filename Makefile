GO ?= go

.PHONY: build test check fmt vet race fuzz bench benchdiff

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# check is the pre-merge gate: formatting, static analysis, the race
# detector over the concurrency-sensitive packages, and a bounded fuzz run.
check: fmt vet race test fuzz

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# bench/ is its own Go module, so the root ./... never compiles it; vetting
# it here catches a change to an API sdbench uses before the benchmark runs.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

race:
	$(GO) test -race ./internal/telemetry/... ./internal/sim/... ./internal/sweep/... ./internal/cluster/... ./internal/par/... ./internal/tensor/... ./internal/store/... ./internal/server/...

# fuzz runs each native fuzz target for a bounded time: the store blob
# decoder, the ISA assembler, the store's key handling, the Chrome trace
# encoder (against its encoding/json oracle), sdserve's POST /jobs spec
# handling, the predictor model loader, the OpenMetrics parser and the
# backward convolution kernels (against the naive backward-data kernel and
# the im2col backward-weights kernel they replaced). Their seeds (a real
# encoded cell and a corrupted copy; the package's test programs; the
# rejected keys of TestInvalidKeysRejected and one valid key; the span sets
# of chrome_test.go and a set of hostile strings and times; a small, an
# oversized and a predict spec, truncated JSON, an unknown mode and format
# and a spec with trailing bytes; a fitted model, a truncated copy, one with
# an overlong centroid and one with a sixth stall-bucket weight vector; a
# registry scrape and the documents of openmetrics_test.go; the simulator's
# one-feature 3×3 shape, the convCases grid, a NaN error at a padding tap, a
# −0 starting gradient and a kernel wider than its input) also run as
# ordinary tests under `go test`.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBlob$$' -fuzztime 10s ./internal/sweep/
	$(GO) test -run '^$$' -fuzz '^FuzzAssemble$$' -fuzztime 10s ./internal/isa/
	$(GO) test -run '^$$' -fuzz '^FuzzStoreKey$$' -fuzztime 10s ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzChromeTrace$$' -fuzztime 10s ./internal/telemetry/
	$(GO) test -run '^$$' -fuzz '^FuzzSubmitSpec$$' -fuzztime 10s ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeModel$$' -fuzztime 10s ./internal/predict/
	$(GO) test -run '^$$' -fuzz '^FuzzParseOpenMetrics$$' -fuzztime 10s ./internal/telemetry/
	$(GO) test -run '^$$' -fuzz '^FuzzConvBackward$$' -fuzztime 10s ./internal/tensor/

# bench runs the tier-1 simulator benchmarks (the telemetry-off/on hot-path
# pair among them: the nil-sink fast path must not cost anything when
# disabled) and records the results as a test2json stream in BENCH_sim.json
# so successive PRs leave a perf trajectory. The telemetry-on/off pair is
# gated: a cell simulation with the full observability stack (job-trace
# lane, metrics registry, structured log line) must cost at most
# $(TELEMETRY_MAX_RATIO)x the telemetry-off run, asserted by
# sdbenchdiff -ratio right after BENCH_sim.json is written. The sweep benchmark times the
# same 8-job grid serially and sharded across GOMAXPROCS workers and records
# the wall-clock ratio (speedup-x) in BENCH_sweep.json. The tensor
# benchmarks time the naive reference kernels against the blocked engine at
# MiniVGG GEMM/conv shapes and record the naive-vs-engine ratio (speedup-x)
# in BENCH_tensor.json.
# The store benchmark runs the same grid cold (simulate + persist), warm
# from a fresh process replaying disk blobs, and warm from the in-process
# memory tier, and records the ratios (disk-speedup-x, mem-speedup-x) in
# BENCH_store.json.
# The predict benchmarks time one cold exact cell simulation against the
# learned fast path answering the same cell (features + confidence gate +
# dot products) and record the per-cell gap (predict-speedup-x) in
# BENCH_predict.json; the ratio gate asserts the fast path stays at least
# 1/$(PREDICT_MAX_RATIO) = 100x faster per cell. The gate is parallelism-
# independent (the predict benchmarks report no workers metric), so it is
# never skipped on single-core runners.
# The cold-cell benchmarks compile, install and run one catalogue cell
# (minivgg/baseline/mb8/train, and minivgg/baseline/mb24/eval, where the
# data window leaves 23 of 24 images' data uncomputed) on a reused machine
# with a registry and a trace lane attached, as an sdserve worker does, and
# record ns/op, B/op and allocs/op in BENCH_cell.json, beside the compile
# benchmark (minivgg and simnet training on the sweep's baseline chip at
# minibatch 1, 8 and 24), which shows how compile time grows with
# minibatch.
# The serve benchmarks fire a duplicate-heavy job storm at the sdserve
# scheduler on a one-token worker budget (one job at a time) and on the
# default GOMAXPROCS-token budget, and record jobs-per-sec,
# p95 latency and the single-flight coalescing counts in BENCH_serve.json;
# the ratio gate asserts the concurrent storm finishes in at most
# $(SERVE_MAX_RATIO)x the serial wall-clock (>= 2x the throughput) on a
# multi-core runner, and skips itself on one core via the workers metric.
TELEMETRY_MAX_RATIO ?= 1.5
PREDICT_MAX_RATIO ?= 0.01
SERVE_MAX_RATIO ?= 0.5

bench:
	$(GO) test -run '^$$' -bench . -benchmem -json ./internal/sim/ > BENCH_sim.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_sim.json | sed 's/"Output":"//;s/\\t/\t/g;s/\\n//' || true
	@echo "wrote BENCH_sim.json"
	$(GO) run ./cmd/sdbenchdiff -ratio RunTelemetryOn/RunTelemetryOff -max-ratio $(TELEMETRY_MAX_RATIO) BENCH_sim.json
	$(GO) test -run '^$$' -bench Grid -json ./internal/sweep/ > BENCH_sweep.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_sweep.json | sed 's/"Output":"//;s/\\t/\t/g;s/\\n//' || true
	@echo "wrote BENCH_sweep.json"
	$(GO) test -run '^$$' -bench Kernel -benchmem -json ./internal/tensor/ > BENCH_tensor.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_tensor.json | sed 's/"Output":"//;s/\\t/\t/g;s/\\n//' || true
	@echo "wrote BENCH_tensor.json"
	$(GO) test -run '^$$' -bench SweepStore -benchmem -json ./internal/sweep/ > BENCH_store.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_store.json | sed 's/"Output":"//;s/\\t/\t/g;s/\\n//' || true
	@echo "wrote BENCH_store.json"
	$(GO) test -run '^$$' -bench Predict -benchmem -json ./internal/predict/ > BENCH_predict.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_predict.json | sed 's/"Output":"//;s/\\t/\t/g;s/\\n//' || true
	@echo "wrote BENCH_predict.json"
	$(GO) run ./cmd/sdbenchdiff -ratio PredictCellFast/PredictCellExact -max-ratio $(PREDICT_MAX_RATIO) BENCH_predict.json
	$(GO) test -run '^$$' -bench '^Benchmark(ColdCell|ColdCellEval|Compile)$$' -benchmem -json ./internal/sweep/ ./internal/compiler/ > BENCH_cell.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_cell.json | sed 's/"Output":"//;s/\\t/\t/g;s/\\n//' || true
	@echo "wrote BENCH_cell.json"
	$(GO) test -run '^$$' -bench ServeStorm -json ./internal/server/ > BENCH_serve.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_serve.json | sed 's/"Output":"//;s/\\t/\t/g;s/\\n//' || true
	@echo "wrote BENCH_serve.json"
	$(GO) run ./cmd/sdbenchdiff -ratio ServeStormConcurrent/ServeStormSerial -max-ratio $(SERVE_MAX_RATIO) BENCH_serve.json

# benchdiff prints a benchstat-style before/after table for each committed
# BENCH file against its freshly regenerated counterpart. Run `make bench`
# first; with the working tree clean, `git stash`-style comparison is just
# `git show HEAD:BENCH_sim.json > old.json && make benchdiff OLD=old.json`.
benchdiff:
	@for f in BENCH_sim BENCH_sweep BENCH_tensor BENCH_store BENCH_predict BENCH_cell BENCH_serve; do \
		if git show HEAD:$$f.json > /tmp/$$f.base.json 2>/dev/null; then \
			echo "== $$f: HEAD vs working tree =="; \
			$(GO) run ./cmd/sdbenchdiff /tmp/$$f.base.json $$f.json; \
		fi; \
	done
