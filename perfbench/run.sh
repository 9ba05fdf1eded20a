#!/usr/bin/env bash
# Builds the study benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload study-v4 --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, temporary files, spill segments, trace
# journals) stays under .bench_build/ in the checkout, and no toolchain or
# module is ever downloaded.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOENV=off
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
commit=$(git --git-dir="$root/.git" rev-parse HEAD 2>/dev/null || echo "not a git checkout")
exec "$out/perfbench" -root "$root" -commit "$commit" "$@"
