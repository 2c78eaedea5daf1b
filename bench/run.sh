#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash bench/run.sh --workload serve-line --seed 7 --seconds 12 --trace 0
#
# Every file the build writes (Go build cache, temp files, the go
# command's config and telemetry, the binary) stays in .bench_build/ at
# the root of the checkout this script lies in. Outside a full checkout
# the build fails — the benchmark module replaces fairnn with the parent
# directory — and the script exits non-zero without printing a result.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
	GOFLAGS= CGO_ENABLED=0
(cd "$root/bench" && go build -o "$out/fairnn-bench" .)
exec "$out/fairnn-bench" "$@"
