#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it:
#
#	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Every build artifact, cache and temporary file stays under .bench_build
# at the checkout root. The last line of standard output is the run's JSON
# result; see perfbench/README.md.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
cd "$root"
exec "$build/perfbench" "$@"
