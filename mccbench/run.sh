#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments, from
# the repository root:
#
#   bash mccbench/run.sh --workload churn32 --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and everything a run leaves behind (span
# files, the serve-mix journal) go under $CARGO_TARGET_DIR (default
# .bench_build) inside the repository.
set -euo pipefail
if [[ ! -f go.mod || ! -d internal || ! -f mccbench/go.mod ]]; then
	echo "mccbench: run from the repository root (go.mod, internal/ and mccbench/ not all found)" >&2
	exit 2
fi
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off
(cd mccbench && go build -o "$out/mccbench" .)
exec "$out/mccbench" -out "$out" "$@"
