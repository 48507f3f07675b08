#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it from the
# repository root; every argument passes through to the benchmark:
#
#   bash e2ebench/run.sh --workload cold-expander --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache included, stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/e2ebench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
# go build leaves an up-to-date binary untouched.
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
