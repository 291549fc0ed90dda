#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it,
# passing every argument through (see README.md for the flags). Run it
# from the repository root:
#
#   bash bench/run.sh --workload serial --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and all run data stay under .bench_build/
# in the directory it is started from; nothing is fetched over the
# network, so a checkout without the repository's sources fails the
# build and exits non-zero.
set -euo pipefail

src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export HOME="$out/home" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
unset XDG_CONFIG_HOME XDG_CACHE_HOME

go -C "$src" build -o "$out/hbbench" .
exec "$out/hbbench" "$@"
