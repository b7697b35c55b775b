#!/usr/bin/env bash
# Builds sdbench from this checkout's source and runs one workload, e.g.
#
#   bash bench/run.sh --workload warm-zoo --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and every temporary file (result stores,
# trace files) stay under .bench_build/ at the root of the checkout. The
# last line of standard output is the JSON result; build output goes to
# standard error.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd bench && go build -o "$out/sdbench" .) >&2
exec "$out/sdbench" "$@"
