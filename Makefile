# Developer/CI entry points. `make check` is the gate: formatting, vet, the
# project's own static analyzers (hcclint), and the full test suite under
# the race detector (the batch worker pool is the main concurrency surface).

GO ?= go

.PHONY: all build test race vet fmt-check lint lint-fix golden alloc-bound fuzz-smoke check bench bench-baseline bench-check report sweep-demo clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# hcclint enforces the repo's determinism, cache-key completeness, unit-
# suffix, unit-flow, and panic-policy invariants (see internal/analysis).
# lint.baseline records accepted pre-existing findings (currently none).
lint:
	$(GO) run ./cmd/hcclint -baseline lint.baseline ./...

# Apply hcclint's suggested fixes (unit-suffix renames, //hcclint:unit
# annotation inserts) in place; CI fails if this leaves the tree dirty.
lint-fix:
	$(GO) run ./cmd/hcclint -baseline lint.baseline -fix ./...

# Byte-identity gate for the simulator's output: every committed figure
# golden, the named-vs-implicit platform spelling test, the per-mode
# Chrome-trace goldens under testdata/, and the pinned scheduling counters
# of the application grid (a host-side speedup must not change how the
# simulation runs).
golden:
	$(GO) test ./internal/figures -run 'Golden|ModeSpelling' -count=1
	$(GO) test . -run GoldenChromeTraces -count=1
	$(GO) test ./internal/workloads -run SchedulingCountersPinned -count=1

# Allocation bounds skip under the race detector, which instruments every
# allocation, so check runs them once without it.
alloc-bound:
	$(GO) test ./internal/serve -run AllocationBound -count=1

check: fmt-check vet lint golden alloc-bound race

# Explore every fuzz target for 5 s each (their seed corpora already run
# under `make test`). Targets are found with `go test -list`, so a new Fuzz*
# function joins without editing this file. Not part of check: CI runs it
# as its own step.
fuzz-smoke:
	@set -e; list="$$($(GO) test -list '^Fuzz' ./...)"; \
	printf '%s\n' "$$list" | \
	awk '/^Fuzz/ { n[++k] = $$1 } /^ok/ { for (i = 1; i <= k; i++) print $$2, n[i]; k = 0 }' | \
	while read -r pkg fz; do \
		echo "fuzz-smoke: $$pkg $$fz"; \
		$(GO) test "$$pkg" -run '^$$' -fuzz "^$$fz$$" -fuzztime 5s; \
	done

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# The committed performance baseline the regression gate compares against.
BENCH_BASELINE ?= BENCH_2026-08-09.json

# Refresh the committed baseline on a quiet machine (commit the result).
bench-baseline:
	$(GO) run ./cmd/hccbench -json -o $(BENCH_BASELINE)

# Regression gate: rerun the suite and fail on >10% loss of events/sec or
# figure wall-clock vs the committed baseline. Wall-clock sensitive — CI
# runs it as a separate non-blocking job.
bench-check:
	$(GO) run ./cmd/hccbench -json -compare $(BENCH_BASELINE)

report:
	$(GO) run ./cmd/hccreport

# A small grid sweep exercising the worker pool and the on-disk cache; run
# it twice to see the warm-cache path skip every simulation.
sweep-demo:
	$(GO) run ./cmd/hccsweep -workloads 2dconv,gemm,sc -modes cc,base \
		-param PCIeGBps=8,16,32,64 -parallel 8 -cache .hcccache

clean:
	rm -rf .hcccache
