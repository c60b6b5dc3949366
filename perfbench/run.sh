#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources into .bench_build and
# runs it from the checkout root with the given arguments. Everything the
# build and the runs leave behind stays under .bench_build. The module
# has no dependencies outside the checkout, so the build never needs the
# network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS= GOWORK=off GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
