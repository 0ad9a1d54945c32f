GO ?= go

.PHONY: all ci check build test race race-all chaos fuzz-smoke vet lint deps-check cover bench bench-check bench-smoke microbench experiments examples clean

all: check

# Default verification path: compile everything, lint (go vet + sdbvet +
# gofmt), guard the server's import graph, run the full test suite,
# race-check the concurrent packages (the HTTP server and the mini-DBMS it
# serves), then vet and test the benchmark module, which pins signatures of
# this one and which nothing else compiles, and run it once, small, the way
# the benchmark pipeline does. Not part of check, and run by ci: chaos (the
# fault-injection suite under -race), fuzz-smoke (every native fuzz target,
# 5 s each) and examples.
check: build lint deps-check test race bench-check bench-smoke

# CI entry point: everything a merge must pass in one target — the default
# verification path (build, lint, tests, scoped -race, the benchmark module),
# the short fault-injection chaos suite, a few seconds of every fuzz target,
# and one run of every example program.
ci: check chaos fuzz-smoke examples

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check the packages with real concurrency — the HTTP service layer,
# the WAL-backed ingest path, the catalog/executor underneath it, the
# pooled packed join kernel, the shared
# metric/span registry — plus the read-mostly data structures they share
# across goroutines (geometry, curves, datasets, samples) and the sweep that
# concurrent estimates join their samples with.
race:
	$(GO) test -race ./internal/server/... ./internal/ingest/... ./internal/resilience/... ./internal/faultfs/... ./internal/telemetry/... ./internal/sdb/... ./internal/obs/... ./internal/rtree/... ./internal/histogram/... ./internal/geom/... ./internal/hilbert/... ./internal/dataset/... ./internal/sample/... ./internal/sweep/...

race-all:
	$(GO) test -race ./...

# Fault-injection suite under the race detector: mixed query+ingest traffic
# over a faulty filesystem (fsync failures, torn writes, ENOSPC), the WAL
# failure-path tests, degraded read-only mode, the HTTP-level admission
# and degraded-mode contracts, and the table lifecycle (a dropped or
# replaced table's old mutation front publishes nothing). -count=1: these
# tests race goroutines, so a second run must replay the interleavings, not
# print a cached pass.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Fault|Degraded|Admission|WAL|Lifecycle' ./internal/ingest/... ./internal/faultfs/... ./internal/resilience/... ./internal/server/...

# Every native fuzz target in the tree (found by name, so a new one is
# picked up without editing this file) for five seconds each, two workers: the
# decoders that face untrusted bytes — .sds datasets, histogram files, every
# HTTP request body — must not panic on any of them. A failing input is
# written to the package's testdata/fuzz/ and then runs with `go test`.
fuzz-smoke:
	@grep -rHo --include='*_test.go' '^func Fuzz[A-Za-z0-9_]*' cmd internal | while IFS=: read -r file fn; do \
		echo "fuzz-smoke: $$(dirname $$file) $${fn#func }"; \
		$(GO) test -run '^$$' -fuzz "^$${fn#func }\$$" -fuzztime 5s -parallel 2 ./$$(dirname $$file) || exit 1; \
	done

# Stock go vet, then the project's own analyzer suite (sdbvet: ctxpoll,
# floateq, maporder syntactically, plus the flow-sensitive lockorder and
# unlockpath on internal/lint/cfg) over every package, bench/'s module
# included, type-checked against the go tool's export data. A //lint:ignore
# that no longer suppresses anything is a finding too, so dead suppressions
# cannot accumulate. Deliberate violations are annotated in source with
# //lint:ignore <analyzer> <reason>.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/sdbvet ./...

# Full lint gate: vet, and a gofmt check that fails on any unformatted file.
lint: build vet
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then echo "gofmt: unformatted files:"; echo "$$fmtout"; exit 1; fi

# The served binary must not link the R-tree I/O model: the server prices the
# tile sweep it runs (sdb.Plan.JoinWork), and iomodel stays only for bench/'s
# layer replay. Fails when `go list -deps ./cmd/sdbd` names it. And the HTTP
# layer builds no estimator: sdb.Table.Estimate computes and remembers every
# pairwise estimate, so ./internal/server must not import histogram or sample
# itself (its tests may).
deps-check:
	@deps=$$($(GO) list -deps -f '{{.ImportPath}}:{{range .Imports}} {{.}}{{end}}' ./cmd/sdbd) || exit 1; \
	if echo "$$deps" | grep -q '^spatialsel/internal/iomodel:'; then \
		echo "deps-check: ./cmd/sdbd imports spatialsel/internal/iomodel"; exit 1; \
	fi; \
	if echo "$$deps" | grep -E '^spatialsel/internal/server:' | grep -qE ' spatialsel/internal/(histogram|sample)( |$$)'; then \
		echo "deps-check: ./internal/server imports spatialsel/internal/histogram or sample (estimators are built in sdb)"; exit 1; \
	fi

cover:
	$(GO) test -coverprofile=cover.out ./internal/... ./cmd/...
	$(GO) tool cover -func=cover.out | tail -1

# The repository benchmark BENCHMARK.json declares: its four paper-scale
# workloads against the in-process server, one JSON line of end-to-end
# metrics each on stdout (bench/README.md has -seed, -seconds, -trace).
bench:
	@for w in join-paper estimate-mix mixed-rw multiway-window; do \
		bash bench/run.sh -workload $$w || exit 1; \
	done

# bench/ is its own module (spatialsel/bench), so `go build ./...` and
# `go test ./...` at the root never compile it: this is what catches a change
# to a signature or metric name the benchmark driver pins. ~5 s.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# bench-check compiles and unit-tests the driver; this runs it, through the
# same bench/run.sh the pipeline uses: every workload with and without the
# traced round, at a twentieth of the cardinalities for one timed round. A
# non-zero exit or a result line without "correct":true fails. ~7 s.
bench-smoke:
	@mkdir -p .bench_build; \
	for w in join-paper estimate-mix mixed-rw multiway-window; do \
		for tr in 0 1; do \
			if ! bash bench/run.sh -workload $$w -seed 1 -scale 0.05 -rounds 1 -trace $$tr \
					>.bench_build/smoke.out 2>.bench_build/smoke.err || \
					! tail -1 .bench_build/smoke.out | grep -q '"correct":true'; then \
				echo "bench-smoke: $$w -trace $$tr failed:"; \
				tail -5 .bench_build/smoke.err; tail -1 .bench_build/smoke.out | cut -c 1-200; \
				exit 1; \
			fi; \
			echo "bench-smoke: $$w -trace $$tr ok"; \
		done; \
	done

# One Go benchmark per paper figure panel plus ablations and extensions.
# SPATIALSEL_BENCH_SCALE (default 0.02) scales dataset cardinalities.
microbench:
	$(GO) test -bench . -benchmem ./...

# Regenerate the paper's evaluation tables at a tenth of its cardinalities.
experiments:
	$(GO) run ./cmd/experiments -fig all -scale 0.1 -level 9

# Run every example program (found by directory, so a new one is picked up
# without editing this file); a non-zero exit fails the target.
examples:
	@for d in examples/*/; do \
		echo "examples: $$d"; \
		$(GO) run ./$$d >/dev/null || exit 1; \
	done

clean:
	rm -f cover.out test_output.txt bench_output.txt
