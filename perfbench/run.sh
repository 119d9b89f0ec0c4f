#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in, then runs one
# workload. Every build and run artifact stays under .bench_build/ in the
# current directory (the checkout root); nothing is fetched.
#
#   bash perfbench/run.sh --workload q1_scan --seed 1 --seconds 24 --trace 0
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS="-buildvcs=false -mod=readonly"
export GOPROXY=off
export GOSUMDB=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
