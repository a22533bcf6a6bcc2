#!/usr/bin/env bash
# benchpairs.sh measures a change's end-to-end benchmark metrics against
# a base revision in alternating pairs of runs, so that drift on a shared
# machine falls on both sides alike. It exports <rev> (git archive) and
# the working tree's tracked and untracked files into one temporary
# directory under $TMPDIR, builds the benchmark from each with the same
# toolchain and the same flags (-trimpath, so neither binary carries its
# checkout's path), and runs <n> pairs of
#
#	benchmark -workload <workload> -trace 0 -seed 1 -seconds <seconds>
#
# the base first in odd pairs and the working tree first in even ones.
# It prints every run's end-to-end metrics, then per metric the median
# of each side and the median of the per-pair relative changes
# (working tree against base; negative is lower). Nothing in the
# checkout is written; the temporary directory goes when the script ends.
#
# Usage, from the repository root:
#
#	tools/benchpairs.sh <rev> <workload> <n> [seconds]
#
# seconds defaults to 20, the run length BENCHMARK.json sets.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
	echo "usage: tools/benchpairs.sh <rev> <workload> <n> [seconds]" >&2
	exit 2
fi
rev=$1 workload=$2 n=$3 seconds=${4:-20}
work=$(mktemp -d "${TMPDIR:-/tmp}/benchpairs.XXXXXX")
trap 'rm -rf "$work"' EXIT

mkdir -p "$work/base/src" "$work/head/src"
git archive "$rev" | tar -xf - -C "$work/base/src"
git ls-files -z --cached --others --exclude-standard | tar --null -T - -cf - | tar -xf - -C "$work/head/src"
for side in base head; do
	(cd "$work/$side/src" && go build -trimpath -o "$work/$side/benchmark" ./benchmark)
done

# run <side> <pair> appends one line per metric, "side pair name value",
# to $work/runs and prints the run.
run() {
	local line
	line=$("$work/$1/benchmark" -workload "$workload" -trace 0 -seed 1 -seconds "$seconds" 2>/dev/null | tail -n 1)
	printf '%s\n' "$line" | grep -o '"[a-z_]*":{"value":[^,}]*' |
		sed 's/^"\([a-z_]*\)":{"value":/\1 /' | while read -r name value; do
		echo "$1 $2 $name $value"
	done | tee -a "$work/runs"
	if ! printf '%s\n' "$line" | grep -q '"failed":0'; then
		echo "benchpairs: $1 run $2 failed an operation: $line" >&2
		exit 1
	fi
}

echo "== $workload: $n pairs of ${seconds}s runs, $rev (base) against the working tree (head)"
for ((i = 1; i <= n; i++)); do
	if ((i % 2)); then run base "$i"; run head "$i"; else run head "$i"; run base "$i"; fi
done

echo "== medians over $n pairs: base, head, and the median per-pair change"
awk '
	function median(a, k,   i, j, t) {
		for (i = 2; i <= k; i++) for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
		return k % 2 ? a[(k+1)/2] : (a[k/2] + a[k/2+1]) / 2
	}
	{ v[$1, $2, $3] = $4; if (!($3 in seen)) { seen[$3] = 1; names[++m] = $3 } if ($2 > pairs) pairs = $2 }
	END {
		for (x = 1; x <= m; x++) {
			name = names[x]; delete b; delete h; delete d; k = 0
			for (p = 1; p <= pairs; p++) {
				k++; b[k] = v["base", p, name]; h[k] = v["head", p, name]
				d[k] = b[k] == 0 ? 0 : 100 * (h[k] - b[k]) / b[k]
			}
			printf "%-24s base %14.4f  head %14.4f  change %+8.2f %%\n", name, median(b, k), median(h, k), median(d, k)
		}
	}' "$work/runs"
