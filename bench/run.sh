#!/usr/bin/env bash
# The benchmark's command: builds the harness from this checkout's
# sources and runs it from the checkout root. Everything the build
# writes stays under .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$root/.bench_build/bench" .
exec "$root/.bench_build/bench" "$@"
