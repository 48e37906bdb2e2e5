#!/usr/bin/env bash
# Builds the benchmark from source and runs it: the command BENCHMARK.json
# names. Everything it writes stays inside the checkout: the Go build
# cache and the binary under .bench_build/, span files and the
# ingest-mixed store under bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$build/config"
(cd "$here" && go build -o "$build/mirrorbench" .)
exec "$build/mirrorbench" -out "$here/out" "$@"
