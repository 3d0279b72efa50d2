#!/usr/bin/env bash
# Builds `scg` and the benchmark from the sources of the checkout this
# script sits in, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload bulk_zipf_k8 --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and span files go under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root" && go build -o "$out/scg" ./cmd/scg) >&2
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" -scg "$out/scg" -out "$out" "$@"
