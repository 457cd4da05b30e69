#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed on, e.g.
#
#   bash censysbench/run.sh --workload refresh-steady --seed 1 --seconds 35 --trace 0
#
# Build outputs, the Go build cache, span dumps and CPU profiles stay
# under $CARGO_TARGET_DIR (default .bench_build) in the current
# directory. The build is offline: only the standard library and this
# repository are compiled.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod" GOFLAGS= GOPROXY=off GOSUMDB=off
export GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off

src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
go build -C "$src" -o "$build/censysbench" .
exec "$build/censysbench" --out "$build" "$@"
