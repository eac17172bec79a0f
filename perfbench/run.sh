#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it; every argument passes through (see perfbench/README.md).
# Run from the repository root:
#   bash perfbench/run.sh --workload durable-writes --seed 1 --seconds 10 --trace 0
# Build outputs, the Go build cache and run data all stay under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (needs go.mod and perfbench/)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" "$@"
