#!/bin/sh
# Builds the benchmark harness from source and runs it. Everything the
# toolchain and the run write stays under .bench_build/ in the checkout.
#
#   sh bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   sh bench/run.sh --agree
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOFLAGS=-modcacherw GOPROXY=off GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/bin/bench" .
cd "$root"
exec "$build/bin/bench" "$@"
