#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload fig9_tumbling --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes (build cache, binary, module and config
# directories) goes under .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: run from the repository root (no go.mod or internal/ here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" HOME="$out/home" XDG_CONFIG_HOME="$out/home"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
