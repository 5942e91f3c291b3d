#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs one
# workload. Run from the repository root:
#
#   bash btbench/run.sh --workload infer-saturated --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and trace files stay in .bench_build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOPROXY=off GOFLAGS= GOTOOLCHAIN=local
(cd btbench && go build -o "$out/btbench" .)
commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/btbench" -commit "$commit" "$@"
