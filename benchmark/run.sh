#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, from the
# root of the checkout. Everything the build and the run write stays under
# .bench_build/ in that checkout: the Go build cache, the build's temporary
# files, the binary, and the run's work directories.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
mkdir -p .bench_build/tmp
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -C benchmark -o "$root/.bench_build/lasagna-benchmark" .
exec .bench_build/lasagna-benchmark "$@"
