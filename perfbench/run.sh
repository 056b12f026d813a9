#!/usr/bin/env bash
# Builds the benchmark and the simd server from this checkout, then runs
# one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload tc-gemm --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes goes under .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "run.sh: run from the repository root (needs go.mod and perfbench/go.mod)" >&2
	exit 1
fi
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOENV=off
mkdir -p "$build/bin" "$build/tmp"
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" . && go build -o "$build/bin/simd" repro/cmd/simd) >&2
exec "$build/bin/perfbench" -simd "$build/bin/simd" -out "$build/out" "$@"
