#!/usr/bin/env bash
# Builds stackbench from source into .bench_build/ and runs it. Run from the
# repository root: bash bench/run.sh --workload embed-hot --seed 1
# Everything the Go toolchain and the benchmark write stays under the
# current directory.
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/stackbench" .) >&2
exec "$build/stackbench" "$@"
