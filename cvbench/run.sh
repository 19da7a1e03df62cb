#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash cvbench/run.sh --workload fleet-days --seed 1 --seconds 10 --trace 0
#
# Every build artifact (binary, Go build cache, Go config) stays under
# .bench_build in the current directory, or under CARGO_TARGET_DIR when set.
# The module proxy is turned off, so the build never reaches the network.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
  /*) ;;
  *) out="$root/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off

go -C "$root/cvbench" build -o "$out/cvbench" .
exec "$out/cvbench" "$@"
