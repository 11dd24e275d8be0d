#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs one workload:
#
#   bash perfbench/run.sh --workload sharded_replicated --seed 7 --seconds 50 --trace 0
#
# Run it from the repository root. Everything the build and the run leave
# behind goes to .bench_build/ under that root: the Go build cache, the
# binary and the trace files. Without the repository's sources beside
# perfbench/ the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off

(cd "$bench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
