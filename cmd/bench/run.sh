#!/usr/bin/env bash
# Builds cmd/bench from source and runs it with the given arguments, from the
# directory the script is called from (the repository root).
#
#   bash cmd/bench/run.sh --workload point-decode --seed 1 --seconds 15 --trace 0
#   bash cmd/bench/run.sh -seed 1 -out results.json    # every workload, one child each
#   bash cmd/bench/run.sh -compare a.json b.json
#
# Build outputs, the Go build cache, the Go command's own config and
# temporary files stay under $CARGO_TARGET_DIR (default .bench_build), so a
# run writes nothing outside the checkout. The toolchain is used offline as
# installed.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$PWD/$build ;;
esac
mkdir -p "$build/go-cache" "$build/go-path" "$build/config" "$build/tmp"

export GOCACHE=$build/go-cache GOPATH=$build/go-path XDG_CONFIG_HOME=$build/config GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off GOENV=off

(cd "$here" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
