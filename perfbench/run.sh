#!/usr/bin/env bash
# Builds the benchmark and the shipped nbodyd/nbodygw binaries from the
# checkout's source, then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload solve-64k --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binaries, server logs and spans.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/nbodyd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a repository checkout (no go.mod, cmd/nbodyd or perfbench here)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -o "$out/bin/nbodyd" ./cmd/nbodyd
go build -o "$out/bin/nbodygw" ./cmd/nbodygw
(cd perfbench && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" "$@"
