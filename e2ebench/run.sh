#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash e2ebench/run.sh --workload dashboard --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and trace files stay under .bench_build
# in the checkout. A failed build exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local CGO_ENABLED=0

(cd "$root/e2ebench" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" "$@"
