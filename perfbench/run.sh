#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with
# the given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload replay-kv --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache, the
# binary and the generated inputs. The build fails, and the script exits
# non-zero, when the checkout lacks the repository's sources.
set -euo pipefail

build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build"
build=$(cd "$build" && pwd)
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --root . --work "$build" "$@"
