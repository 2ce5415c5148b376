#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build and runs it with the
# given arguments, from the root of a checkout:
#
#   bash benchmark/run.sh --workload audit-point --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build and
# benchmark/out. Without the repository's go.mod and sources beside
# benchmark/, the build fails and nothing is run.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"

# The commit goes into the report when this directory is itself a git
# checkout; the driver's copy is not.
commit=unknown
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
  commit=$(git -C "$root" rev-parse HEAD)
fi

# Keep the toolchain's caches, temporary files and settings in the checkout,
# and keep it off the network: the module needs nothing but the repository.
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

go build -C "$root/benchmark" -buildvcs=false -o "$build/graphtrek-benchmark" .
exec "$build/graphtrek-benchmark" -data "$build/data" -out "$root/benchmark/out" -commit "$commit" "$@"
