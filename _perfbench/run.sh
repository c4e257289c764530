#!/usr/bin/env bash
# Builds the EPOC benchmark harness from this checkout's sources and runs
# one workload:
#
#   bash _perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Every build and run artifact stays
# inside the checkout: the Go build cache, temp files and the harness
# binary go to .bench_build/, traced-run artifacts to .bench_out/.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export TMPDIR="$build/tmp"
export GOFLAGS=
export GOWORK=off
export GOPROXY=off
export GOTOOLCHAIN=local
export CGO_ENABLED=0

(cd "$root/_perfbench" && go build -o "$build/epocbench" .)
exec "$build/epocbench" "$@"
