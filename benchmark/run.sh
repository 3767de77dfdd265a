#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it; this
# is the command BENCHMARK.json names. Everything the build writes (the
# binary, Go's build cache) and every traced run's span dump goes under
# .bench_build/ at the checkout root, which .gitignore lists.
set -euo pipefail
dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$dir")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTOOLCHAIN=local GOWORK=off
go build -C "$dir" -o "$build/benchmark" .
cd "$root"
exec "$build/benchmark" "$@"
