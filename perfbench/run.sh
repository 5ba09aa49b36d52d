#!/usr/bin/env bash
# Builds perfbench from the checkout it is run in and runs it; arguments
# pass through (--workload, --seed, --seconds, --trace). Run from the root
# of the checkout:
#
#   bash perfbench/run.sh --workload serve-steady --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
if [[ ! -f go.mod || ! -d internal/serve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a Trident checkout (go.mod, internal/, perfbench/)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" --commit "$commit" --out "$out/trace" "$@"
