#!/usr/bin/env bash
# Builds the PayLess benchmark from the checkout it is run in, then runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload buy_cold --seed 1 --seconds 20 --trace 0
#
# The build output, the Go build cache, the span dumps and the durable-store
# directories all stay under .bench_build/ in the checkout. The benchmark is
# its own Go module (perfbench/go.mod) that builds the repository's code
# through a replace directive, so it fails to build, and this script exits
# non-zero, when the repository's sources are not beside it.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --workdir "$out" "$@"
