#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it is run
# from, then runs it with the given arguments:
#
#   bash e2ebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the checkout root. Everything the build and the run leave
# behind (Go build cache, temp files, media stores, traces, result files)
# stays under .bench_build/ in that checkout; the Go toolchain never goes to
# the network.
set -euo pipefail
root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -f "$root/e2ebench/go.mod" ]]; then
	echo "e2ebench: run from the root of a smol checkout (go.mod and e2ebench/ not found)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off
(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" --scratch "$build" "$@"
