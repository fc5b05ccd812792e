#!/usr/bin/env bash
# Builds the benchmark and cmd/experiments from source into .bench_build,
# then runs one workload:
#
#   bash perfbench/run.sh --workload sens-cold --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds, caches and writes
# stays under .bench_build; the last line of standard output is the JSON
# result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/experiments" ]]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/experiments here)" >&2
	exit 2
fi
mkdir -p "$build/bin" "$build/tmp" "$build/home"
# HOME and the XDG directories point into the build directory as well, so
# the go tool's per-user state is not written outside the checkout.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/mod" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off \
	GOTELEMETRY=off HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2
go build -o "$build/bin/experiments" ./cmd/experiments >&2

exec "$build/bin/perfbench" -work "$build/perfbench-work" -experiments "$build/bin/experiments" \
	-golden "$root/perfbench/golden.json" "$@"
