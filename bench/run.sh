#!/usr/bin/env bash
# The command of BENCHMARK.json: build ./bench from source and run it with the
# arguments given. The go command writes only its build cache and its usage
# counters; both are kept under .bench_build in the checkout, with the binary.
# The first build in a fresh checkout compiles the standard library too; later
# ones are cache hits.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build"
export GOCACHE="$build/go-cache" XDG_CONFIG_HOME="$build/config"
go build -C "$root/bench" -o "$build/bench" .
exec "$build/bench" "$@"
