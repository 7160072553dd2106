#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it once:
#
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Everything the build writes (Go build cache, binary) goes under
# .bench_build/ at the root of the checkout, so a run reads and writes
# nothing outside it. The first run in a checkout compiles the standard
# library into that cache; later runs reuse it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
