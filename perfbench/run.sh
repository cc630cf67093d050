#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload bulk-bdp --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build artefact (binary, Go build
# cache, the go command's own config and telemetry files) stays under
# .bench_build/ so the run writes nothing outside the checkout. Without the
# program's sources next to perfbench/ the build fails and the script exits
# non-zero before printing any result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off
export GOPROXY=off

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
