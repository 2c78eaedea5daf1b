#!/usr/bin/env bash
# lint.sh — the static invariant gate.
#
# Two layers run over the whole module, and again over bench/ (the
# benchmark is a module of its own, so `./...` from the root skips it):
#
#   1. the stock `go vet` analyzers (stdlib correctness checks), and
#   2. the fairnn suite (cmd/fairnnlint) driven through go vet's
#      -vettool protocol: rngstream, noalloc, ctxpoll, frozenindex and
#      panicfanout — the compile-time counterparts of the runtime
#      oracles in CI (chi-squared stream uniformity, AllocsPerRun == 0,
#      idle-injector bit-equivalence).
#
# The suite is standard-library only, so this script needs no network
# and adds no module dependency. SSA-based extras from x/tools
# (nilness, unusedwrite) are deliberately NOT wired in: they would pull
# golang.org/x/tools into the build, and the module ships dependency-free.
set -euo pipefail
cd "$(dirname "$0")/.."

# FAIRNNLINT names where to keep the built analyzer binary; without it
# the binary goes to a temporary directory that is removed on exit.
if [[ -n "${FAIRNNLINT:-}" ]]; then
  tool=$FAIRNNLINT
else
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' EXIT
  tool=$tmp/fairnnlint
fi
case "$tool" in /*) ;; *) tool="$PWD/$tool" ;; esac

echo "lint: go vet (stock analyzers)"
go vet ./...

echo "lint: building cmd/fairnnlint"
go build -o "$tool" ./cmd/fairnnlint

echo "lint: go vet -vettool=$tool (fairnn invariant suite)"
go vet -vettool="$tool" ./...

echo "lint: bench/ (go vet, stock analyzers and fairnn invariant suite)"
go vet -C bench ./...
go vet -C bench -vettool="$tool" ./...

echo "lint: clean"
