#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root.
# Everything the build and the run write stays inside the checkout: the Go
# build cache, temp dir and binary go to .bench_build/ at its root, run
# artefacts to bench/out/. Nothing depends on $HOME.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
