#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Build cache, temp files and the binary stay inside the checkout
# (.bench_build/), so a run reads and writes nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
# XDG_CONFIG_HOME moves go's env file and telemetry counters into the checkout.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/hyper-bench" .)
cd "$root"
exec "$build/hyper-bench" "$@"
