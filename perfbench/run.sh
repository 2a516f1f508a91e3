#!/usr/bin/env bash
# Builds the benchmark and segserve from this checkout's sources, then runs
# the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload lookup --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -o "$out/segserve" repro/cmd/segserve) >&2
exec "$out/perfbench" -segserve "$out/segserve" -workdir "$out" "$@"
