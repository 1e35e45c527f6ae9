#!/usr/bin/env bash
# Builds trngbench from this checkout and runs it with the given flags, e.g.
#
#   bash bench/run.sh --workload sliced-light --seed 1 --seconds 10 --trace 0
#
# Every build artifact (binary, Go build cache, temp files) stays under
# .bench_build/ at the checkout root, so a run reads and writes nothing
# outside the checkout. The benchmark module replaces the repository module
# with "..", so the build fails (and no result is printed) when bench/ is
# copied without the repository around it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

go -C "$root/bench" build -o "$out/trngbench" ./trngbench
exec "$out/trngbench" "$@"
