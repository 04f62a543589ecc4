#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload serve-tcp --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a checkout. Everything the build and the run
# write (Go build cache, the go command's config and telemetry, binary,
# store files, span dumps) goes under .bench_build/ in that checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
  GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
