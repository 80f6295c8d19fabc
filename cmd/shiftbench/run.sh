#!/usr/bin/env bash
# Builds cmd/shiftbench from source and runs it with the given arguments.
# Run from the repository root. Everything the build and the run write
# stays under .bench_build/ in the current directory: the binary, Go's
# build cache, its temporary files and the benchmark's output.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
# Telemetry off: otherwise the go command forks a sidecar process that
# outlives it, so the script would leave a process running.
printf 'off\n' > "$build/config/go/telemetry/mode"
export GOFLAGS=-mod=vendor GOPROXY=off GOTOOLCHAIN=local
go build -o "$build/shiftbench" ./cmd/shiftbench
exec "$build/shiftbench" "$@"
