#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout root
# and runs it. Everything the go toolchain and the benchmark write stays
# inside the checkout: the build cache, the binary and the cluster dirs.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/go-cache"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GRIDVINE_BENCH_TMP="$root/.bench_tmp"

(cd "$here" && go build -o "$build/gridvine-benchmark" .)
exec "$build/gridvine-benchmark" "$@"
