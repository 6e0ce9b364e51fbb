#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh -seed 1
#   bash bench/run.sh -workload corun-credit -seed 1 -seconds 20 -trace 0
#
# The Go build cache, the Go configuration directory and the binary all
# live under .bench_build/ (or $CARGO_TARGET_DIR) in the current
# directory, so a run writes nothing outside the checkout. The benchmark is
# its own Go module that builds the simulator from the parent directory;
# without it, the build fails and no result is printed.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -C bench -o "$out/bench" .
exec "$out/bench" "$@"
