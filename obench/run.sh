#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#   bash obench/run.sh --workload tpcc-cpu --seed 1 --seconds 10 --trace 0
# Run from the repository root. The build cache, the binary and every file
# a run writes stay under .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/home/go" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$root/obench" && go build -o "$out/obench" .)
exec "$out/obench" "$@"
