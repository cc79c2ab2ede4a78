#!/usr/bin/env bash
# Builds the benchmark and monetlited from source into .bench_build/ and runs
# the benchmark with the given flags. Everything it writes stays inside the
# checkout: build cache, binaries, scratch databases and span files.
#
#   bash bench/run.sh --workload olap_scan --seed 1 --seconds 8 --trace 0
#   bash bench/run.sh                      # all six workloads
set -eu
cd "$(dirname "$0")/.."
root=$PWD
build=$root/.bench_build
mkdir -p "$build/bin" "$build/tmp" "$build/gocache"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
# Diagnostics of the build go to stderr; stdout carries only the benchmark's output.
go build -C bench -o "$build/bin/" . repro/cmd/monetlited >&2
exec "$build/bin/bench" -out "$root/bench/out" -monetlited "$build/bin/monetlited" "$@"
