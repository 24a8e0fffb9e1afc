#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload typing --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under ${CARGO_TARGET_DIR:-.bench_build} in the working directory,
# including the Go build cache.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/tmp"
out=$(cd "$out" && pwd)

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off CGO_ENABLED=0

(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
