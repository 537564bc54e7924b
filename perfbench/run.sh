#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload:
#   bash perfbench/run.sh --workload voter-oltp --seed 1 --seconds 20 --trace 0
# Build cache, binary, temp files and results stay under $CARGO_TARGET_DIR
# (default .bench_build) in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/perfbench/tmp"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" TMPDIR="$build/perfbench/tmp" GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -o "$build/perfbench/perfbench" .)
exec "$build/perfbench/perfbench" -work "$build/perfbench" "$@"
