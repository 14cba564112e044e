#!/bin/sh
# Builds the benchmark from source into <checkout>/.bench_build (build cache
# included, so nothing is written outside the checkout) and runs it from the
# checkout root with the caller's arguments.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off
# The commit goes in through the linker; VCS stamping is off because a
# checkout that is not a git repository (or not ours) must still build.
commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
(cd "$root/bench" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/asapbench" .)
cd "$root"
exec "$build/asapbench" "$@"
