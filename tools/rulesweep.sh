#!/usr/bin/env bash
# rulesweep.sh is the mutation sweep over the model's rules
# (docs/CHECKING.md, "What holds each model rule"). Each patch under
# tools/mutants/ breaks one rule the paper's results depend on; its
# first line, a comment, says which. For every patch the script applies
# it to a scratch copy of the tree (the tracked and untracked files, as
# `git ls-files` lists them), runs tier-1 with the golden tests and the
# examples' pinned output skipped — a golden catches every change, so it
# would name no rule; TestRecycleOrderIndependent compares digests with
# digests.golden, so it is one too — and prints the first failing
# package's first failing test (or, where a panic on another goroutine
# killed the package, the panic's line), or `survived` when none fails.
# A survivor is a rule no behavioural test holds.
#
# Usage, from the repository root:
#
#	tools/rulesweep.sh [patch...]
#
# With no argument it runs every patch under tools/mutants/. Each
# mutant costs one tier-1 run; the last line is the sweep's wall time.
# Nothing in the checkout is written; the copy goes when the script
# ends.
set -euo pipefail

skip='Golden|Goldens$|Pinned$|^TestPairTraceDigests$|^TestRecycleOrderIndependent$|^Example'
work=$(mktemp -d "${TMPDIR:-/tmp}/rulesweep.XXXXXX")
trap 'rm -rf "$work"' EXIT
git ls-files -z --cached --others --exclude-standard | tar --null -T - -cf - | tar -xf - -C "$work"

start=$(date +%s)
if [ $# -eq 0 ]; then
	set -- tools/mutants/*.patch
fi
for m in "$@"; do
	name=$(basename "$m" .patch)
	if ! patch -s -p1 -d "$work" <"$m" >/dev/null; then
		printf '%-20s does not apply\n' "$name"
		continue
	fi
	if out=$(cd "$work" && go test -count=1 -skip "$skip" ./... 2>&1); then
		result=survived
	else
		# go test prints each package's output whole, in package order,
		# ending in the package's ok/FAIL line: the first failing
		# package's block holds the first failing test, or, where a panic
		# on another goroutine than the test's killed the package, no
		# `--- FAIL` line but the panic's.
		result="killed by $(printf '%s\n' "$out" | awk '
			/^(ok|FAIL|\?)[ \t]+kdp\// {
				if ($1 == "FAIL") {
					print (test != "" ? test : panicked != "" ? panicked : "a build failure") " (" $2 ")"
					exit
				}
				test = panicked = ""
				next
			}
			test == "" && /--- FAIL: / { test = $0; sub(/.*--- FAIL: /, "", test); sub(/ .*/, "", test) }
			panicked == "" && /^panic: / { panicked = $0 }
		')"
	fi
	printf '%-20s %s\n' "$name" "$result"
	patch -s -R -p1 -d "$work" <"$m" >/dev/null
done
echo "wall time: $(($(date +%s) - start)) s for $# mutant(s)"
