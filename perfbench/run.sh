#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it, from
# the repository root:
#
#   bash perfbench/run.sh --workload capture-up --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, temp traces and span files all stay
# under .bench_build/ in the root. Without the repository around it (no
# ../go.mod) the build fails and the script exits nonzero.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
commit=unknown
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/bin/perfbench" -dir "$out/run" -commit "$commit" "$@"
