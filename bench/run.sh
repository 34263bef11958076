#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it from the
# checkout root; every argument passes through (see bench/README.md).
#
# Everything the build and the run write — the binary, the Go build
# cache, temp files, run-cache directories and traces — stays under
# .bench_build/ at the checkout root. The first run in a fresh checkout
# compiles the standard library into that cache, so it takes a few
# minutes; later runs reuse it.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
# The go command keeps telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"

(cd "$root/bench" && go build -o "$out/xorbp-bench" .)
cd "$root"
exec "$out/xorbp-bench" "$@"
