#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the repository's root and runs
# it with the given arguments. Everything the build writes (Go's build
# cache included) stays under .bench_build/, inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$out/benchmark" . >&2
exec "$out/benchmark" "$@"
