#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds ./bench from the checkout's
# sources into .bench_build/ — Go's build cache and temp files included, so
# nothing is read or written outside the checkout — and runs it with the
# arguments given. Run from the checkout root; `go run ./bench` does the
# same with the user's own Go cache.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
