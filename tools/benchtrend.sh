#!/usr/bin/env bash
# benchtrend.sh measures the benchmark's host time across revisions in
# one sitting, so that drift on a shared machine falls on every revision
# alike (the BENCH_*.json records were each measured at a different
# time, and their host metrics cannot be compared). It exports each
# revision with `git archive` (`.` is the working tree: its tracked and
# untracked files) into one temporary directory under $TMPDIR, builds
# the benchmark from each with the same toolchain and flags (-trimpath),
# and runs
#
#	benchmark -workload <w> -trace 0 -seed 1 -seconds <seconds>
#
# for every workload and revision, round-robin: each round visits the
# workloads in turn and, per workload, every revision, starting one
# revision later than the round before. It prints every run, then one
# row per revision and workload: the median of host_ms_per_iter over the
# rounds, its spread (the lowest and highest run, as a percentage of the
# median), and the median host_alloc_kb_per_iter. Nothing in the
# checkout is written; the temporary directory goes when the script
# ends.
#
# Usage, from the repository root:
#
#	tools/benchtrend.sh [-n rounds] [-s seconds] <rev>...
#
# rounds defaults to 5 and seconds to 5: one sitting costs about
# rounds x revisions x 4 x (seconds + setup).
set -euo pipefail

rounds=5 seconds=5
while getopts n:s: opt; do
	case $opt in
	n) rounds=$OPTARG ;;
	s) seconds=$OPTARG ;;
	*) exit 2 ;;
	esac
done
shift $((OPTIND - 1))
if [ $# -eq 0 ]; then
	echo "usage: tools/benchtrend.sh [-n rounds] [-s seconds] <rev>..." >&2
	exit 2
fi
revs=("$@")
workloads=(tables_ram tables_rz58 serve_net check_mix)
work=$(mktemp -d "${TMPDIR:-/tmp}/benchtrend.XXXXXX")
trap 'rm -rf "$work"' EXIT

for i in "${!revs[@]}"; do
	mkdir -p "$work/$i/src"
	if [ "${revs[$i]}" = . ]; then
		git ls-files -z --cached --others --exclude-standard | tar --null -T - -cf - | tar -xf - -C "$work/$i/src"
	else
		git archive "${revs[$i]}" | tar -xf - -C "$work/$i/src"
	fi
	(cd "$work/$i/src" && go build -trimpath -o "$work/$i/benchmark" ./benchmark)
done

# run <rev index> <workload> <round> appends "rev workload round metric
# value" lines to $work/runs and prints them.
run() {
	local line
	line=$("$work/$1/benchmark" -workload "$2" -trace 0 -seed 1 -seconds "$seconds" 2>/dev/null | tail -n 1)
	if ! printf '%s\n' "$line" | grep -q '"failed":0'; then
		echo "benchtrend: ${revs[$1]} $2 round $3 failed an operation: $line" >&2
		exit 1
	fi
	printf '%s\n' "$line" | grep -o '"host_[a-z_]*":{"value":[^,}]*' |
		sed 's/^"\([a-z_]*\)":{"value":/\1 /' | while read -r name value; do
		echo "${revs[$1]} $2 $3 $name $value"
	done | tee -a "$work/runs"
}

start=$(date +%s)
echo "== ${#revs[@]} revisions x ${#workloads[@]} workloads x $rounds rounds of ${seconds}s runs"
for ((r = 0; r < rounds; r++)); do
	for w in "${workloads[@]}"; do
		for ((j = 0; j < ${#revs[@]}; j++)); do
			run $(((j + r) % ${#revs[@]})) "$w" "$r"
		done
	done
done

echo "== per revision: host_ms_per_iter median [min, max as % of the median], host_alloc_kb_per_iter median"
awk -v order="${revs[*]}" -v wls="${workloads[*]}" '
	function median(a, k,   i, j, t) {
		for (i = 2; i <= k; i++) for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
		return k % 2 ? a[(k+1)/2] : (a[k/2] + a[k/2+1]) / 2
	}
	$4 == "host_ms_per_iter" { ms[$1, $2, ++nms[$1, $2]] = $5 }
	$4 == "host_alloc_kb_per_iter" { kb[$1, $2, ++nkb[$1, $2]] = $5 }
	END {
		nr = split(order, rev, " "); nw = split(wls, wl, " ")
		printf "%-12s %-12s %12s %18s %14s\n", "revision", "workload", "host ms", "spread", "alloc KB"
		for (w = 1; w <= nw; w++) for (r = 1; r <= nr; r++) {
			k = nms[rev[r], wl[w]]; delete a; lo = hi = ms[rev[r], wl[w], 1]
			for (i = 1; i <= k; i++) { a[i] = ms[rev[r], wl[w], i]; if (a[i] < lo) lo = a[i]; if (a[i] > hi) hi = a[i] }
			m = median(a, k)
			delete b; for (i = 1; i <= nkb[rev[r], wl[w]]; i++) b[i] = kb[rev[r], wl[w], i]
			printf "%-12s %-12s %12.2f   [%+6.1f, %+6.1f] %% %14.0f\n", rev[r], wl[w], m, 100*(lo-m)/m, 100*(hi-m)/m, median(b, nkb[rev[r], wl[w]])
		}
	}' "$work/runs"
echo "wall time: $(($(date +%s) - start)) s of runs"
