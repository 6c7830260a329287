#!/usr/bin/env bash
# Builds the ringserve benchmark from this checkout's source and runs it.
# Run from the repository root:
#
#   bash ringservebench/run.sh --workload cached_hits --seed 1 --seconds 20 --trace 0
#
# The binary and the Go build cache are kept under .bench_build/ in the
# repository root, so nothing is written outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS= GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
(cd "$here" && go build -o "$out/ringservebench" .)
exec "$out/ringservebench" "$@"
