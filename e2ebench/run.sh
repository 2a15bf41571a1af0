#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root; every argument is passed to the benchmark:
#
#   bash e2ebench/run.sh --workload hot-dashboard --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, the binary,
# the generated stores, span files) goes under $CARGO_TARGET_DIR, or
# .bench_build when it is unset.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"

export GOCACHE=$build/go-cache
export GOPATH=$build/go-path
export GOTMPDIR=$build/tmp
export TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local
export GOENV=off
export GOFLAGS=
export GOWORK=off

(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" --workdir "$build/e2ebench-work" "$@"
