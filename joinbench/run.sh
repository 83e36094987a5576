#!/usr/bin/env bash
# Builds the join benchmark from source and runs it. Run from the repository
# root:
#
#   bash joinbench/run.sh --workload out-heavy --seed 1 --seconds 30 --trace 0
#
# Every build artifact, cache and span file stays under .bench_build/ in the
# current directory. The build needs the repository's module (../go.mod from
# here); without it the build fails and the script exits non-zero before
# printing any result.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build/joinbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly
export GOPROXY=off
export GOSUMDB=off
export GOTOOLCHAIN=local
export GOWORK=off
export CGO_ENABLED=0

# Build beside the binary and rename, so a run never sees a half-written
# binary.
(cd "$root/joinbench" && go build -trimpath -o "$out/joinbench.$$" .)
mv -f "$out/joinbench.$$" "$out/joinbench"
exec "$out/joinbench" --out "$out" "$@"
