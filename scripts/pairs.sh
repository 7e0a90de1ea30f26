#!/usr/bin/env bash
# pairs.sh — compares two checkouts of this module on one workload of
# BENCHMARK.json in alternated pairs of end-to-end runs:
#
#   scripts/pairs.sh PARENT CHANGE WORKLOAD N [nessa-e2e flags...]
#
# Each checkout is copied (without .git and .bench_build) into a
# temporary directory, and its own cmd/nessa-e2e/run.sh runs there, so
# nothing is written into either checkout; the copies, with the build
# caches run.sh keeps in them, are removed on exit. Pair i runs
# `run.sh -workload WORKLOAD [flags]` once on each side, the parent
# first in even pairs and the change first in odd ones. For every
# metric in the runs' result lines it prints the parent's and the
# change's median, the parent's interquartile range and the number of
# pairs in which the change was better (in the direction BENCHMARK.json
# gives; a tie counts as no win).
#
# The spread of the parent against itself is the floor a claim has to
# clear: `scripts/pairs.sh P P WORKLOAD N` measures it.
set -euo pipefail

if [[ $# -lt 4 ]]; then
	echo "usage: scripts/pairs.sh PARENT CHANGE WORKLOAD N [nessa-e2e flags...]" >&2
	exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
n=$4
shift 4
if ! [[ $n =~ ^[1-9][0-9]*$ ]]; then
	echo "pairs.sh: N must be a positive count, got $n" >&2
	exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for side in parent change; do
	src=${!side}
	mkdir "$tmp/$side"
	tar -C "$src" --exclude=./.git --exclude=./.bench_build -cf - . | tar -C "$tmp/$side" -xf -
done

# run SIDE PAIR: one run.sh run on that side's copy; its result line
# (the last line of standard output) goes to $tmp/SIDE.PAIR.
run() {
	if ! (cd "$tmp/$1" && bash cmd/nessa-e2e/run.sh -workload "$workload" "${@:3}") >"$tmp/$1.out"; then
		echo "pairs.sh: $1 run $2 of $workload failed" >&2
		exit 1
	fi
	tail -n 1 "$tmp/$1.out" >"$tmp/$1.$2"
}
for ((i = 0; i < n; i++)); do
	if ((i % 2 == 0)); then
		run parent "$i" "$@"
		run change "$i" "$@"
	else
		run change "$i" "$@"
		run parent "$i" "$@"
	fi
	echo "pairs.sh: $workload pair $((i + 1)) of $n done" >&2
done

# One line per run and metric: side, pair, metric, value.
for side in parent change; do
	for ((i = 0; i < n; i++)); do
		grep -oE '"[a-z0-9_.]+":\{"value":[-+0-9.eE]+' "$tmp/$side.$i" |
			sed -E 's/^"([^"]+)":\{"value":/\1 /' |
			awk -v side="$side" -v pair="$i" '{ print side, pair, $1, $2 }'
	done
done >"$tmp/values"

# Which way is better, per metric, from the change's BENCHMARK.json.
awk '/"name":/ { gsub(/[",]/, "", $2); name = $2 }
	/"better":/ { gsub(/[",]/, "", $2); print name, $2 }' "$change/BENCHMARK.json" >"$tmp/better"

awk -v n="$n" -v workload="$workload" '
	FILENAME == ARGV[1] { better[$1] = $2; next }
	{ v[$1, $3, $2] = $4; if (!($3 in seen)) { seen[$3] = 1; order[++m] = $3 } }
	# q: the p-quantile of a[1..k] sorted ascending, linearly interpolated.
	function q(a, k, p,    h, lo) {
		h = (k - 1) * p + 1
		lo = int(h)
		return lo >= k ? a[k] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
	}
	function sorted(side, metric, a,    i, j, k, t) {
		k = 0
		for (i = 0; i < n; i++) a[++k] = v[side, metric, i]
		for (i = 2; i <= k; i++)
			for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
		return k
	}
	END {
		printf "%s, %d pairs\n", workload, n
		printf "%-24s %8s %14s %14s %14s %6s\n", "metric", "better", "parent median", "change median", "parent IQR", "wins"
		for (o = 1; o <= m; o++) {
			metric = order[o]
			dir = (metric in better) ? better[metric] : "lower"
			k = sorted("parent", metric, pa)
			sorted("change", metric, ch)
			wins = 0
			for (i = 0; i < n; i++) {
				d = v["change", metric, i] - v["parent", metric, i]
				if (dir == "higher" ? d > 0 : d < 0) wins++
			}
			printf "%-24s %8s %14.6g %14.6g %14.6g %3d/%d\n", metric, dir, q(pa, k, 0.5), q(ch, k, 0.5),
				q(pa, k, 0.75) - q(pa, k, 0.25), wins, n
		}
	}' "$tmp/better" "$tmp/values"
