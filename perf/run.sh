#!/usr/bin/env bash
# What BENCHMARK.json's driver runs. It builds the harness and executes
# it, and keeps everything the go tool writes (build cache, temporary
# files, module cache, its telemetry counters, the binaries) inside the
# checkout, under .perf-out/; the module needs nothing downloaded. By
# hand, `go run ./perf` does the same with the go tool's usual
# directories.
#
# The go tool's telemetry is switched off in that private config dir
# first: with it on, the first go command in a fresh config dir starts a
# detached `go` child (the telemetry sidecar) that outlives this script.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d cmd/waved ]; then
	echo "perf/run.sh: run from the root of the waveindex module (no go.mod or cmd/waved here)" >&2
	exit 1
fi
out="$PWD/.perf-out"
mkdir -p "$out/tmp" "$out/config/go/telemetry"
echo off >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go build -o "$out/perf" ./perf
exec "$out/perf" "$@"
