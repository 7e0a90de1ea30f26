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
# nessa-bench is built once and invoked as a binary below — repeated
# `go run` pays the link step on every invocation.
go build -o "$tmpdir/nessa-bench" ./cmd/nessa-bench

gate "gofmt"
# gofmt placement is load-bearing for the analysis suite: a
# mis-formatted //nessa: directive (no blank // separator, wrong
# indentation) can silently detach from its declaration and stop
# marking or exempting anything.
unformatted="$(gofmt -l .)"
if [[ -n "$unformatted" ]]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

gate "fused multiply-adds off amd64"
# The cross-architecture contract: a run on any target selects and
# trains bit for bit as on amd64. gc fuses x*y + z into one FMA
# instruction, which rounds once where amd64 rounds twice, on every
# target below (never on amd64). The spec lets it fuse across
# statements, `t := x*y; s += t` included; only an explicit conversion,
# float32(x*y) or float64(x*y), forbids it. So the check is what gc
# emits: each target's -S listing of the module and of its test
# binaries must hold no fused instruction at a module line. The two
# lines of the frozen internal/bench/e2e/trace.go are the only
# exemptions, until that package may change (ROADMAP 12b). A failed
# build fails, and so does a listing with no instruction at a module
# line at all, so a changed -S format cannot read as clean. The listing
# replays from the build cache once compiled.
fused_exempt="internal/bench/e2e/trace.go:156 internal/bench/e2e/trace.go:166"
fused_found=0
listing="$tmpdir/listing"
for arch in arm64 ppc64le s390x riscv64 loong64; do
	for build in "build" "test -c -o $tmpdir/testbin/"; do
		# $build splits into words on purpose. -S writes to stderr; on
		# failure, show what is not listing (whose lines start with # or
		# a tab, or name a symbol with its size=).
		if ! GOARCH="$arch" go $build -gcflags='nessa/...=-S' ./... >/dev/null 2>"$listing"; then
			grep -vE '^[#[:space:]]| size=[0-9]' "$listing" | tail -n 20 >&2
			echo "fused multiply-adds: GOARCH=$arch go ${build%% -o *} failed" >&2
			exit 1
		fi
		rm -rf "$tmpdir/testbin"
		# An instruction line reads "\t0x0040 00064 (/abs/f.go:12)\tOP\targs".
		sites="$(awk -F '\t' -v root="$PWD/" -v exempt=" $fused_exempt " '
			$2 ~ /^0x[0-9a-f]+ [0-9]+ \(/ {
				pos = substr($2, index($2, "(") + 1)
				pos = substr(pos, 1, length(pos) - 1)
				if (index(pos, root) != 1) next
				insns++
				pos = substr(pos, length(root) + 1)
				if ($3 ~ /^FN?M(ADD|SUB)[SDF]?$/ && index(exempt, " " pos " ") == 0)
					print pos " " $3
			}
			END { if (!insns) exit 1 }' "$listing")" || {
			echo "fused multiply-adds: GOARCH=$arch go ${build%% -o *} listed no instruction at a module line" >&2
			exit 1
		}
		if [[ -n "$sites" ]]; then
			echo "GOARCH=$arch go ${build%% -o *}: fused multiply-adds (wrap the product as float32(x*y) or float64(x*y)):" >&2
			sort -u <<<"$sites" | sed 's/^/  /' >&2
			fused_found=1
		fi
	done
done
rm -f "$listing"
if ((fused_found)); then
	exit 1
fi

gate "go test -race"
# The whole test suite under the race detector, which is the check for
# writes to captured variables from concurrent closures (a go statement
# or a parallel.Pool body); no analyzer has that rule. Its coverage of
# the pool does not depend on the host's CPU count: the
# parallel-equivalence tests (internal/selection/parallel_test.go,
# TestMaximizersParallelSerialEquivalence and
# TestObjectiveParallelSerialEquivalence among them) pin 8 workers.
#
# This step is also the analysis gate. TestRepoVetClean
# (internal/analysis) runs the repo's five source analyzers over every
# package `go list ./...` names: determinism (no wall clock / math/rand
# in device code), hotpath (//nessa:hotpath functions stay free of
# allocating constructs), errhygiene (sentinel errors compared with
# errors.Is, wrapped with %w), concurrency (WaitGroup.Add inside a go
# statement's closure, Unlock on a path with no Lock) and scratchlife
# (//nessa:arena and parallel.WorkerLocal scratch escaping its epoch).
# TestRepoCompilerClean rebuilds the module with gc diagnostics and runs
# inlinegate (//nessa:inline kernels inline at hot call sites) and
# bcecheck (no IsInBounds survives an innermost hot loop of the kernel
# packages); its parsed formats are validated for go1.22–go1.26, and on
# any other toolchain it skips instead of mis-parsing. Each finding
# fails the step with its file:line; the only exceptions are the
# //nessa:alloc-ok, //nessa:scratch-ok and //nessa:bce-ok waivers at the
# site.
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
# cluster tests run on the row-table GF(256) loops. They run them as
# amd64 compiles them, unfused; that the other targets compile them
# the same way is the fused multiply-add gate's check, above.
go test -tags purego ./internal/core ./internal/trainer ./internal/selection/... \
	./internal/bench/e2e ./internal/tensor ./internal/nn ./internal/erasure ./internal/smartssd

gate "fuzzing"
# Every decoder of bytes from outside the program — the NSCP
# checkpoint, the model and optimizer blobs inside it, the on-SSD
# record as a scan reads it (VerifyRecord, then DecodeRecordInto into
# a slice sized by the checked feature count) — runs its fuzz target
# for 3 s from the committed corpus
# (testdata/fuzz/<target>/). The property is the same for all four:
# error or byte-exact round trip, never a panic, never an allocation
# beyond a small multiple of the input. The GEMM target differentially
# fuzzes the AVX kernels against the portable Go kernels on ragged
# shapes, bit for bit; the erasure target does the same for the AVX2
# GF(256) kernel and round-trips Reconstruct / ReconstructData over
# random placements, lengths, offsets and loss patterns; the streaming
# target holds the AVX2 similarity transform to the portable loop on
# ragged row and column counts and NaN, ±Inf and ±0 values, and the
# facility-gain target holds the four-candidate AVX2 gain scan to the
# per-row loop on ragged draw and column counts with the same values,
# denormals and repeated draws. The softmax target holds the block
# softmax, with the AVX2 exponential on and off, to the per-row
# reference on ragged shapes of rows with NaN, ±Inf, ±0, denormals and
# spreads that reach the exponential's denormal and underflow branches,
# and the exponential kernel to its portable sequence on raw float64
# bits. The storage target holds the drive's
# read to its payload contract: a clean contiguous read is a
# capacity-clipped view of the stored bytes, every other read lands in
# the caller's buffer when it has room, and no payload differs from
# the stored bytes by more than the one injected bit flip. `go test
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
	"FuzzSoftmaxMatchesPortable ./internal/tensor" \
	"FuzzReconstructMatchesPortable ./internal/erasure" \
	"FuzzTransformMatchesPortable ./internal/selection/streaming" \
	"FuzzGainMatchesPortable ./internal/selection" \
	"FuzzReadRecordsInto ./internal/storage"; do
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
