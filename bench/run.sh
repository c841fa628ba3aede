#!/usr/bin/env bash
# Builds dlbench from source and runs it with the given arguments. Run it
# from the repository root, as BENCHMARK.json's command does:
#
#   bash bench/run.sh --workload batch-collect --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh compare base.json vs new.json
#
# The build cache, the binary and the serve journals all live under
# .bench_build/ in the repository root, so a run writes nothing outside it.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/bench/go.mod" ]]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/bench" && go build -o "$out/dlbench" ./dlbench)
exec "$out/dlbench" "$@"
