#!/usr/bin/env bash
# Builds the repository benchmark from the checkout's sources and runs it
# from the checkout root. Every build output, cache and temporary file
# stays under .bench_build/ in the checkout.
#
#   bash perfbench/run.sh --workload count --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --workload all --seconds 3
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
# Pin the whole process to one CPU, the last it may use: with two, lease's
# loopback traffic ran on both or on one depending on the scheduler, and its
# latency took one of two values 1.5x apart from run to run.
if command -v taskset >/dev/null; then
	cpus=$(taskset -cp $$ | sed 's/.*: //')
	exec taskset -c "${cpus##*[,-]}" "$build/perfbench" "$@"
fi
exec "$build/perfbench" "$@"
