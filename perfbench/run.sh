#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs one
# workload.  Run it from the repository root:
#
#   bash perfbench/run.sh --workload live-hot --seed 1 --seconds 20 --trace 0
#
# Build output and the Go build cache stay under .bench_build (or
# $CARGO_TARGET_DIR when set), so nothing is written outside the
# checkout.  The result is the last line of standard output.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
