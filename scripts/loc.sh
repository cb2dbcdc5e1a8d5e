#!/usr/bin/env bash
# Prints non-test, non-blank, non-comment Go lines per package directory —
# the counting rule the simplicity PRs and ROADMAP re-anchors quote.
# Usage: scripts/loc.sh [root]   (default: the repository root)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

total=0
while read -r dir; do
	n=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + |
		grep -v '^\s*//' | grep -v '^\s*$' | wc -l)
	[ "$n" -eq 0 ] && continue
	printf '%6d  %s\n' "$n" "$dir"
	total=$((total + n))
done < <(find . -name '*.go' ! -name '*_test.go' -not -path './.bench_build/*' -printf '%h\n' | sort -u)
printf '%6d  total\n' "$total"
