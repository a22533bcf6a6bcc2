#!/usr/bin/env bash
# bumpsweep.sh is the mutation sweep over the generation rule's bump
# sites and the buffer cache's marks (docs/CHECKING.md, "What a probe
# costs"). For every `gen.Bump()` call, and every call of the cache's
# touch, rehash and touchChain, in the non-test sources it deletes that
# one line in a scratch copy of the tree and runs the audit
# (TestAuditFindsNoMissingBump: every seed of the four kdpcheck pin
# lines, the digest corpus among them) with the damage and ghost-tick
# pins. Each site prints KILLED when a test fails without it, SURVIVED
# when none does: another bump or mark in the same stretch between
# scheduling boundaries covers it.
#
# Usage, from the repository root:
#
#	tools/bumpsweep.sh [path-regexp]
#
# The optional argument limits the sweep to files whose path matches.
# A killed mutant stops at its first failing seed; a surviving one runs
# the whole audit (about 20 s).
set -euo pipefail

filter=${1:-.}
tests='^(TestAuditFindsNoMissingBump|TestDamageReportsPinned|TestGhostBoundTripsAtItsTick)$'
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
git ls-files -z | tar --null -T - -cf - | tar -xf - -C "$work"

killed=0 survived=0
while IFS=: read -r file line _; do
	cp "$file" "$work/$file"
	sed -i "${line}d" "$work/$file"
	if out=$(cd "$work" && go test ./internal/simcheck -count=1 -run "$tests" 2>&1); then
		echo "SURVIVED $file:$line"
		survived=$((survived + 1))
	else
		why=$(printf '%s\n' "$out" | grep -m1 'missing bump' ||
			printf '%s\n' "$out" | grep -m1 -E 'seed [0-9]+:|panic|--- FAIL' || true)
		echo "KILLED   $file:$line  ${why#"${why%%[![:space:]]*}"}"
		killed=$((killed + 1))
	fi
	cp "$file" "$work/$file"
done < <(git grep -n -E 'gen\.Bump\(\)|\<c\.(touch|rehash|touchChain)\(' -- '*.go' ':!*_test.go' |
	grep -v -E '^[^:]*:[0-9]+:func ' | grep -E "$filter")
echo "bump and mark sites: $((killed + survived)), killed $killed, survived $survived"
