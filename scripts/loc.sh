#!/bin/sh
# loc.sh prints the Go code-line count per package directory and in total:
# non-test (_test.go excluded), non-blank, non-comment lines (a line whose
# first non-blank characters are // is a comment) outside bench/ and every
# testdata/ tree. This is the line count CHANGES.md entries report.
#
# Usage: sh scripts/loc.sh [root]    (root defaults to the repository root)
set -eu
root=${1:-$(cd "$(dirname "$0")/.." && pwd)}
cd "$root"
find . -name '*.go' ! -name '*_test.go' -not -path './bench/*' \
	-not -path '*/testdata/*' -not -path './.*' | sort |
	xargs awk '
	{
		l = $0
		sub(/^[ \t]+/, "", l)
		if (l == "" || l ~ /^\/\//) next
		d = FILENAME
		sub(/\/[^\/]*$/, "", d)
		sub(/^\.\/?/, "", d)
		if (d == "") d = "(root)"
		n[d]++
		total++
	}
	END {
		sorter = "sort -k1,1nr -k2,2"
		for (d in n) printf "%6d  %s\n", n[d], d | sorter
		close(sorter)
		printf "%6d  total\n", total
	}'
