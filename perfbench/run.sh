#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
#
#   bash perfbench/run.sh --workload guest-io --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under perfbench/.cache.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cache="$here/.cache"
mkdir -p "$cache/go-build" "$cache/tmp" "$cache/mod" "$cache/config"

export GOENV=off
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$cache/config"
export GOCACHE="$cache/go-build"
export GOTMPDIR="$cache/tmp"
export GOMODCACHE="$cache/mod"
export GOPATH="$cache/gopath"
export GOFLAGS=-mod=readonly
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
export CGO_ENABLED=0

(cd "$here" && go build -trimpath -buildvcs=false -o "$cache/sedperf" .) >&2
exec "$cache/sedperf" -root "$root" "$@"
