#!/usr/bin/env bash
# run.sh — build the benchmark from source and run it with the given flags.
# BENCHMARK.json names this script as the benchmark's command; call it from
# the repository root (or anywhere: paths are taken from the script's own
# location). Everything the build leaves behind goes under .bench_build/ in
# the repository root, the Go build cache included, so a checkout is only
# ever written inside itself.
#
#   bash benchmark/run.sh --workload periodic-q19 --seed 1 --seconds 20 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

# No network and no toolchain download: the module has no dependency
# outside the repository.
export GOCACHE="$build/gocache" GOPROXY=off GOTOOLCHAIN=local

# `go build` is a no-op costing well under a second when nothing changed.
(cd "$here" && go build -o "$build/benchmark" .) >&2

cd "$root"
exec "$build/benchmark" "$@"
