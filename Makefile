# Developer entry points. CI runs the same commands (.github/workflows/ci.yml).

GO  ?= go
BIN := bin

.PHONY: all build test race lint loc bench-wall-smoke bench-alloc ckpt-e2e serve-e2e clean

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

$(BIN)/grapelint: $(wildcard cmd/grapelint/*.go) $(wildcard internal/lint/*.go)
	$(GO) build -o $@ ./cmd/grapelint

# lint runs what the CI lint job runs offline: the domain-invariant
# analyzer suite (DESIGN.md §10) with stale-suppression detection.
lint: $(BIN)/grapelint
	$(BIN)/grapelint -unused-ignores ./...

# loc prints the north star's own metric (ROADMAP aim 2, "net source
# lines going down"): lines of non-test Go and of assembly (*.s is
# source) outside benchmark/, per package directory and in total. Lint
# fixtures under testdata/ are test inputs and are not counted. Then the
# *_test.go lines outside benchmark/, per package directory and in total
# (also ROADMAP aim 2), and the byte sizes of the two documents ROADMAP
# item 9 budgets.
per_dir = awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
	END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d $(1)\n", t }'

loc:
	@find . \( -name '*.go' -o -name '*.s' \) ! -name '*_test.go' ! -path './benchmark/*' \
		! -path '*/testdata/*' ! -path './.bench_build/*' -print0 | xargs -0 wc -l | $(call per_dir,total)
	@find . -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' -print0 | \
		xargs -0 wc -l | $(call per_dir,test lines)
	@wc -c DESIGN.md EXPERIMENTS.md | awk '$$2 != "total" { printf "%7d bytes %s\n", $$1, $$2 }'

# bench-wall-smoke builds, vets and tests the wall-clock benchmark
# (benchmark/, its own module repro/benchmark, so `go test ./...` above
# never sees it). It hand-assembles the step pipeline from the internal
# packages' constructors, so an API edit there breaks it first.
bench-wall-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# bench-alloc gates the arena step pipeline (DESIGN.md §11): the
# steady-state allocation budgets (the facade's, and the integrator
# core's, which is zero), the live-heap footprint per particle and the
# build's reuse and layout conformance, all at GOMAXPROCS=1 and
# GOMAXPROCS=4 so scheduler width cannot mask a regression.
bench-alloc:
	GOMAXPROCS=1 $(GO) test -count=1 -run 'TestStepAllocs|TestStepFootprint|TestBuildSteadyStateAllocs' . ./internal/integrate ./internal/octree
	GOMAXPROCS=4 $(GO) test -count=1 -run 'TestStepAllocs|TestStepFootprint|TestBuildSteadyStateAllocs' . ./internal/integrate ./internal/octree
	GOMAXPROCS=1 $(GO) test -count=1 -run 'TestBuilderReuseMatchesFresh|TestGroupBoxesMatchBuild' ./internal/octree
	GOMAXPROCS=4 $(GO) test -count=1 -run 'TestBuilderReuseMatchesFresh|TestGroupBoxesMatchBuild' ./internal/octree

# ckpt-e2e gates the crash-safe checkpoint/restart layer (DESIGN.md
# §12): kill/resume bitwise-identity, torn-checkpoint fallback, graceful
# SIGINT and the supervised crash loop — through the real binaries,
# under the race detector — plus, at the unit level, the checkpoint
# reader's corruption guarantees, the byte-golden files of both formats,
# the resume of a store written before the manifest was dropped, the
# step report's checkpoint telemetry (each save counted once), and a
# resume's allocations (each array once; a forged count stays capped).
ckpt-e2e:
	$(GO) test -count=1 -race -run 'TestE2E' ./cmd/grape5sim ./cmd/simrun
	$(GO) test -count=1 -run 'TestEveryBitFlipDetected|TestEveryTruncationDetected|TestLatestValid|TestParentWrittenStoreResumes|TestGoldenFilesByteIdentical|TestResumeRefusesRetiredOptions|TestCheckpointTelemetryCountsEachSaveOnce|TestReadFileAllocatesOnce|TestForgedCountFailsShortRead' ./internal/ckpt ./internal/snapio .

# serve-e2e gates the multi-tenant job server (DESIGN.md §14): fair
# completion order, explicit 429 backpressure, bitwise result identity
# vs standalone runs, the SSE/cancellation soak with its goroutine-leak
# budget — all under the race detector — plus the daemon-level
# SIGKILL/restart resume through the real simd binary, and the wire
# schema and validator tests.
serve-e2e:
	$(GO) test -count=1 -race -run 'TestE2E|TestSoak' ./internal/serve ./cmd/simd
	$(GO) test -count=1 -run 'TestDecodeJobRequest|SchemaGolden' ./internal/serve

clean:
	rm -rf $(BIN)
