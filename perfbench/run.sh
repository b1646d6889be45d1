#!/usr/bin/env bash
# Builds the benchmark (and, through it, the program) from source inside the
# checkout, then runs it. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload evaluation --seed 1 --seconds 20 --trace 0
#
# Every build artifact, the Go build cache and temporary files stay under
# .bench_build/ in the checkout. Build output goes to stderr so the last line
# of stdout is always the benchmark's JSON result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command's own state (telemetry counters, env file) goes here too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
