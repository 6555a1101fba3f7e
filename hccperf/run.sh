#!/usr/bin/env bash
# Builds the hccperf host-time benchmark from this checkout's sources and
# runs it. Run from the repository root, for example:
#
#   bash hccperf/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write (Go build cache, the binary, CPU
# profiles, spans, sweep caches) goes under $CARGO_TARGET_DIR, by default
# .bench_build in the current directory.
set -euo pipefail

root="$PWD"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp" "$build/config"

# Keep the Go toolchain's caches, temp files and settings inside the build
# directory, and never let it reach for the network.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly

(cd "$root/hccperf" && go build -o "$build/hccperf" .)
exec "$build/hccperf" -out "$build/hccperf-out" "$@"
