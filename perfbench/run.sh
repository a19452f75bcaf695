#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload tables|world|platoond --seed N --seconds S --trace 0|1
#
# Every build artefact, the Go build cache included, stays under the
# build directory ($CARGO_TARGET_DIR, default .bench_build) in the
# current directory.
set -euo pipefail

root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=
# Go keeps its telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$build/config"

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -scratch "$build" "$@"
