#!/usr/bin/env bash
# Builds the served-path benchmark from this checkout's sources and runs it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload hot-mix --seed 1 --seconds 30 --trace 0
# Every build and run artefact stays under .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/server" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a secureview checkout (go.mod and internal/server not found)" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod" GOTMPDIR="$out/tmp"
# The go command keeps its telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOENV=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
