#!/usr/bin/env bash
# Builds perfbench from the checkout it is run in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload fig5b-1024 --seed 1 --seconds 15 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
