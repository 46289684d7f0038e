#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout — private build
# cache, module cache and temp directory, so nothing is written outside
# it — and runs it with the given arguments.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/out/build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$build/vaqbench" .)
export VAQBENCH_DIR="$here"
exec "$build/vaqbench" "$@"
