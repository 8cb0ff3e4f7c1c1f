#!/usr/bin/env bash
# Entry point named by BENCHMARK.json:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds cmd/orfbench (a module of its own, cmd/orfbench/go.mod, that
# replaces orfdisk with this checkout) and hands it the arguments.
# orfbench then builds orfserve, orfrouter, orfload and orfgen itself.
# Everything the toolchain and the run write stays under .bench_build/
# and bench/out/ of the checkout; any other orfbench flag (-all,
# -compare, -short, -out) passes through the same way.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d cmd/orfserve ]; then
	echo "bench/run.sh: no orfdisk checkout at $PWD (go.mod and cmd/orfserve missing): nothing to measure" >&2
	exit 1
fi
B="$PWD/.bench_build"
mkdir -p "$B/bin" "$B/tmp"
export GOCACHE="$B/gocache" GOTMPDIR="$B/tmp" GOTOOLCHAIN=local
export GOPATH="${GOPATH:-$B/gopath}"      # no module is fetched: the repo is stdlib-only
export XDG_CONFIG_HOME="$B/config"        # where the go command keeps its own counters
# A go command that finds no telemetry mode file starts a detached
# "** telemetry **" child that outlives it; "off" starts none.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -C cmd/orfbench -o "$B/bin/orfbench" .
exec "$B/bin/orfbench" "$@"
