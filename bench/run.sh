#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# given arguments. Run from the repository root: bash bench/run.sh --workload ...
# Everything the go command writes — build cache, module cache, its own
# telemetry counters (which follow XDG_CONFIG_HOME) — is pointed into
# .bench_build/, so nothing is written outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
(
	export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
	export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
	cd "$root/bench" && go build -o "$build/lambada-bench" .
)
cd "$root"
exec "$build/lambada-bench" "$@"
