#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Run it from the repository root:
#
#   bash internal/perfbench/run.sh --workload ring-1k --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and span dumps all stay under
# .bench_build/ (or $CARGO_TARGET_DIR when set) in the current directory.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTOOLCHAIN=local GOFLAGS=
(cd "$root/internal/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -spans "$out/spans" "$@"
