#!/usr/bin/env bash
# Builds the benchmark and the micached server from this checkout, then
# runs the benchmark with the given arguments, e.g.
#
#   bash bench/bench.sh run --workload paper-matrix --seed 1 --seconds 10 --trace 0
#   bash bench/bench.sh compare parent.jsonl change.jsonl
#
# Run it from the repository root. Everything the build and the run
# write (binaries, the Go build cache, scratch directories, profiles)
# stays under $CARGO_TARGET_DIR, default .bench_build, so nothing
# outside the checkout is touched.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp" "$out/xdg"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export TMPDIR=$out/tmp XDG_CONFIG_HOME=$out/xdg
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$root/bench" && go build -o "$out/bench" .)
go build -o "$out/micached" ./cmd/micached

exec "$out/bench" -root "$root" -build "$out" "$@"
