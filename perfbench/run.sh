#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Every
# argument is passed through, e.g.
#
#   bash perfbench/run.sh --workload cold-pages --seed 1 --seconds 10 --trace 0
#
# Build output, the Go build cache and Go's config files stay under
# .bench_build in the directory it is run from (the repository root).
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
