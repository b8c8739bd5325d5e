#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark driver and the
# indoorqd daemon from the surrounding checkout into .bench_build/ (the only
# place this benchmark writes, apart from benchmark/out/) and runs the driver
# with the caller's arguments. Fails before printing anything when the
# repository's sources are not there to build.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out="$PWD/.bench_build"
mkdir -p "$out/bin"
# Keep the Go toolchain's own writes inside the checkout and off the network.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
go build -C benchmark -o "$out/bin/benchmark" .
go build -C benchmark -o "$out/bin/indoorqd" repro/cmd/indoorqd
exec "$out/bin/benchmark" -indoorqd "$out/bin/indoorqd" -scratch "$out" "$@"
