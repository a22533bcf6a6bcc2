#!/usr/bin/env bash
# The benchmark's build file: compiles the package from source into
# .bench_build/ in the checkout and runs it with the driver's arguments.
# Everything the Go toolchain writes — build cache, telemetry counters,
# module cache — is pointed inside the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
# Telemetry off before the first go command: in its default "local" mode the
# go command detaches a sidecar process that outlives this script.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod here: run from the root of a checkout that holds the program" >&2
	exit 2
fi
go build -o "$build/kdp-benchmark" ./benchmark
exec "$build/kdp-benchmark" "$@"
