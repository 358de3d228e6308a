#!/usr/bin/env bash
# cpupairs: paired CPU comparison of this checkout against another commit
# on the paper-scale point (BenchmarkPaperPoint, paperpoint_linux_test.go).
#
#   scripts/cpupairs.sh <base-rev> [pairs]
#
# Builds two test binaries with `go test -c`: one from <base-rev> (a
# `git archive` of it, given this checkout's paperpoint_linux_test.go so
# that both run the same benchmark) and one from this checkout's working
# tree. It then runs them alternately, one process per run, `pairs` times
# (default 10), and prints each pair's CPU seconds of the simulating
# thread and the ratio base/this (above 1: this checkout is faster), then
# the median ratio. One process per run matters: pairs taken inside one
# process share its heap, so they cannot measure a change to how memory
# is backed. It exits 1 if the two builds execute a different number of
# events, which would make the times incomparable. Linux only; nothing
# else CPU-heavy should run meanwhile. Work files go to a mktemp -d
# directory (honours TMPDIR), removed on exit.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 <base-rev> [pairs]" >&2
    exit 2
fi
rev="$1"
pairs="${2:-10}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

mkdir "$work/base"
git -C "$here" archive "$rev" | tar -x -C "$work/base"
cp "$here/paperpoint_linux_test.go" "$work/base/"
(cd "$work/base" && go test -c -o "$work/base.test" .)
(cd "$here" && go test -c -o "$work/this.test" .)

# run <binary>: prints "<cpu_s/op> <events/op>" of one benchmark process.
run() {
    "$1" -test.run '^$' -test.bench '^BenchmarkPaperPoint$' -test.benchtime 1x -test.timeout 10m |
        awk '/^BenchmarkPaperPoint/ { for (i = 1; i < NF; i++) { if ($(i+1) == "cpu_s/op") c = $i; if ($(i+1) == "events/op") e = $i } }
             END { if (c == "" || e == "") exit 1; print c, e }'
}

ratios=""
for i in $(seq 1 "$pairs"); do
    read -r bc be < <(run "$work/base.test")
    read -r tc te < <(run "$work/this.test")
    if [ "$be" != "$te" ]; then
        echo "pair $i: events differ: base $be, this $te" >&2
        exit 1
    fi
    r="$(awk -v b="$bc" -v t="$tc" 'BEGIN { printf "%.3f", b / t }')"
    echo "pair $i: base ${bc} s, this ${tc} s, base/this $r (events $te)"
    ratios="$ratios $r"
done
echo "$ratios" | tr ' ' '\n' | sed '/^$/d' | sort -n |
    awk '{ v[NR] = $1 } END { m = (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2; printf "median base/this %.3f over %d pairs\n", m, NR }'
