#!/usr/bin/env bash
# check.sh — the repo's CI gate: vet, build, and the full test suite
# under the race detector. The race run matters here: the selection
# engine fans work out across the internal/parallel pool (facility
# kernels, per-class CRAIG, blocked GEMM), and every one of those paths
# must stay data-race-free.
set -euo pipefail
cd "$(dirname "$0")/.."

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

# gate prints a section header and, for the section it closes, the
# elapsed wall time — so CI logs show where the minutes go.
gate_name=""
gate_start=$SECONDS
gate() {
	if [[ -n "$gate_name" ]]; then
		echo "-- ${gate_name}: $((SECONDS - gate_start))s"
	fi
	gate_name="$1"
	gate_start=$SECONDS
	echo "== $1 =="
}

gate "go vet"
go vet ./...
# The non-amd64 build: the portable-only kernel dispatch and the
# gemm_noasm.go stubs compile nowhere else.
GOARCH=arm64 go vet ./...

gate "go build"
go build ./...
# The repo's own tools are built once and invoked as binaries below —
# repeated `go run` pays the link step on every invocation.
go build -o "$tmpdir/nessa-vet" ./cmd/nessa-vet
go build -o "$tmpdir/nessa-bench" ./cmd/nessa-bench

gate "gofmt"
# gofmt placement is load-bearing for nessa-vet: a mis-formatted
# //nessa: directive (no blank // separator, wrong indentation) can
# silently detach from its declaration and stop exempting anything.
unformatted="$(gofmt -l .)"
if [[ -n "$unformatted" ]]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

gate "nessa-vet"
# The repo's own seven analyzers: determinism (no wall clock /
# math/rand in device code), maporder (no order-sensitive folds over
# map iteration), hotpath (//nessa:hotpath functions stay free of
# allocating constructs, sync.Pool included — the GC drains pools, so
# steady state keeps missing and allocating), fma (no fusable float
# multiply-adds in the kernel packages), errhygiene (sentinel errors
# compared with errors.Is, wrapped with %w), concurrency
# (WaitGroup.Add inside a go statement's closure, Unlock on a path with
# no Lock — captured-variable writes are the race gate's, below, and
# copied locks go vet's, above) and scratchlife (//nessa:arena and
# parallel.WorkerLocal scratch escaping its epoch). Seeds reaching
# their streams are core.TestSeedReachesEveryStream's. Any finding
# fails the gate; a deliberate exception is a //nessa:*-ok waiver at
# the site.
"$tmpdir/nessa-vet" ./...

gate "nessa-vet -compiler"
# Machine-level verification: rebuild with gc diagnostics
# (-gcflags='-m=2 -d=ssa/check_bce/debug=1' — cached after the first
# compile) and check the hot-path contracts against what the compiler
# actually emitted: inlinegate (//nessa:inline kernels stay within gc's
# inline budget and inline at hot call sites) and bcecheck (no
# IsInBounds survives an innermost hot loop in the kernel packages
# without //nessa:bce-ok). Heap escapes in //nessa:hotpath functions
# are the allocation tests' (the AllocsPerRun and epoch-alloc
# assertions, below). Any finding fails the gate.
#
# Toolchain pin: the parsed diagnostic formats are validated for
# go1.22–go1.26. On any other toolchain nessa-vet warns and exits 0
# instead of mis-parsing.
"$tmpdir/nessa-vet" -compiler ./...

gate "go test -race"
# The check for writes to captured variables from concurrent closures
# (a go statement or a parallel.Pool body); nessa-vet has no such rule.
# Its coverage of the pool does not depend on the host's CPU count:
# the parallel-equivalence tests (internal/selection/parallel_test.go,
# TestMaximizersParallelSerialEquivalence and
# TestObjectiveParallelSerialEquivalence among them) pin 8 workers.
go test -race ./...

gate "allocation assertions"
# The race run skips every raceEnabled-guarded allocation assertion
# (trainer, tensor, selection, smartssd, parallel, nn, core): the
# detector's instrumentation allocates on its own. This non-race pass
# over the tests named *Alloc* is where those assertions execute.
go test -count=1 -run 'Alloc' ./...

gate "portable kernels (purego)"
# The purego tag drops the amd64 assembly, so the golden trajectories,
# the selection equivalence tests and the e2e pins run on the portable
# Go kernels that every other architecture uses, and the erasure and
# cluster tests run on the row-table GF(256) loops. It does not stand in
# for nessa-vet's fma analyzer: gc fuses float multiply-adds only on
# arm64-class targets, never on amd64.
go test -tags purego ./internal/core ./internal/trainer ./internal/selection/... \
	./internal/bench/e2e ./internal/tensor ./internal/erasure ./internal/smartssd

gate "fuzzing"
# Every decoder of bytes from outside the program — the NSCP
# checkpoint, the model and optimizer blobs inside it, the on-SSD
# record — runs its fuzz target for 3 s from the committed corpus
# (testdata/fuzz/<target>/). The property is the same for all four:
# error or byte-exact round trip, never a panic, never an allocation
# beyond a small multiple of the input. The GEMM target differentially
# fuzzes the AVX kernels against the portable Go kernels on ragged
# shapes, bit for bit; the erasure target does the same for the AVX2
# GF(256) kernel and round-trips Reconstruct / ReconstructData over
# random placements, lengths, offsets and loss patterns; the streaming
# target holds the AVX2 similarity transform to the portable loop on
# ragged row and column counts and NaN, ±Inf and ±0 values. `go test
# -fuzz` takes one target per invocation. A crasher fails the gate and
# go test writes its input under testdata/fuzz/, where it belongs in
# the commit that fixes it. -fuzzminimizetime 1x: the default spends up to a minute
# minimizing each coverage-expanding input, i.e. all of a 3 s budget.
for target in \
	"FuzzRestore ./internal/core" \
	"FuzzUnmarshalModelInto ./internal/nn" \
	"FuzzUnmarshalSGDInto ./internal/nn" \
	"FuzzDecodeRecord ./internal/data" \
	"FuzzGEMMMatchesPortable ./internal/tensor" \
	"FuzzReconstructMatchesPortable ./internal/erasure" \
	"FuzzTransformMatchesPortable ./internal/selection/streaming"; do
	read -r name pkg <<<"$target"
	go test -run '^$' -fuzz "^${name}\$" -fuzztime 3s -fuzzminimizetime 1x "$pkg"
done

gate "benchmarks (short mode)"
# One pass over the hot-path benchmarks so a perf-destroying change
# shows up in CI logs even when every test still passes.
go test -run xxx -bench 'BenchmarkTrainEpoch|BenchmarkGEMMKernels|BenchmarkSelectorPush|BenchmarkSelectorFinish' \
	-benchtime 1x ./internal/trainer/ ./internal/tensor/ ./internal/selection/streaming/

gate "determinism gate"
# The five measured artifacts recompute selection subsets and training
# trajectories across the worker sweep, the fault and device-loss runs
# and the streaming pass, and hold each to its gates; the artifact ×
# gate × threshold table is README.md's "Reproducing" section, which
# mirrors the registry nessa-bench walks. Throughput and speedup numbers
# (bench-training's workers=2 epoch speedup among them: 0.65–1.27× on a
# 2-CPU host, where its 1.5× gate was always red) are ungated trend
# numbers in the artifacts. nessa-bench prints one
# "gate ok" / "FAILED gate" line per gate on stderr, exits 1 when any
# gate of the artifact failed and 2 when it does not know the id — a
# typo here must not read as a gate that passed.
#
# Each artifact runs on its own so one failing gate does not hide the
# ones after it; every failed gate is listed by name at the end.
failed_gates=()
for artifact in bench-selection bench-training bench-streaming bench-faults bench-recovery; do
	status=0
	"$tmpdir/nessa-bench" -quick -results "$tmpdir/results" -only "$artifact" \
		>/dev/null 2>"$tmpdir/bench.err" || status=$?
	cat "$tmpdir/bench.err" >&2
	if ((status)); then
		mapfile -t lines < <(grep 'FAILED gate' "$tmpdir/bench.err" || tail -n 1 "$tmpdir/bench.err")
		failed_gates+=("${lines[@]}")
	fi
done

echo "-- ${gate_name}: $((SECONDS - gate_start))s"
if ((${#failed_gates[@]})); then
	echo "FAILED bench gates:" >&2
	printf '  %s\n' "${failed_gates[@]}" >&2
	exit 1
fi
echo "OK"
