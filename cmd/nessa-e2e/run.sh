#!/usr/bin/env bash
# run.sh — BENCHMARK.json's command. Builds nessa-e2e from the checkout
# it is started in and runs it with the arguments given. Everything the
# build writes (binary, Go build cache, temporaries) stays under
# .bench_build/ in that checkout, so a run reads and writes nothing
# outside it; the first run in a fresh checkout pays the full compile,
# later ones a cache lookup.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/nessa-e2e ]]; then
	echo "run.sh: start me from the root of the nessa module (no go.mod or cmd/nessa-e2e here)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off

go build -o "$build/nessa-e2e" ./cmd/nessa-e2e
exec "$build/nessa-e2e" "$@"
