#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash benchmark/run.sh --workload wire-mismatch --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/ at
# the repository root (Go build cache, binary, snapshot files, span dumps),
# and no network access is attempted.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
# The go command keeps its settings and telemetry under the user config
# directory; point that inside the build directory and ignore settings files.
export XDG_CONFIG_HOME="$out/config" GOENV=off
export GOFLAGS= GOPROXY=off GOSUMDB=off GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/qcbench" .)
exec "$out/qcbench" --root "$root" "$@"
