#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ inside the checkout
# (binary and Go build cache both, so nothing is written elsewhere) and
# runs it from the checkout root with the given arguments.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"
