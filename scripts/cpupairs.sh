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
# thread and the ratio base/this (above 1: this checkout is faster), and
# each process's peak resident set with the ratio this/base (below 1:
# this checkout uses less memory), then the median of each ratio. One
# process per run matters: pairs taken inside one process share its
# heap, so they cannot measure a change to how memory is backed, and the
# peak is the process's. It exits 1 if the two builds execute a
# different number of events, which would make the times incomparable.
# Linux only; nothing else CPU-heavy should run meanwhile. Work files go
# to a mktemp -d directory (honours TMPDIR), removed on exit.
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

# run <binary>: prints "<cpu_s/op> <events/op> <peak_rss_mb>" of one
# benchmark process.
run() {
    "$1" -test.run '^$' -test.bench '^BenchmarkPaperPoint$' -test.benchtime 1x -test.timeout 10m |
        awk '/^BenchmarkPaperPoint/ { for (i = 1; i < NF; i++) { if ($(i+1) == "cpu_s/op") c = $i; if ($(i+1) == "events/op") e = $i; if ($(i+1) == "peak_rss_mb") m = $i } }
             END { if (c == "" || e == "" || m == "") exit 1; print c, e, m }'
}

# median: the median of the numbers on stdin, one a line.
median() {
    sort -n | awk '{ v[NR] = $1 } END { printf "%.3f", (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
}

ratios=""
rss=""
for i in $(seq 1 "$pairs"); do
    read -r bc be bm < <(run "$work/base.test")
    read -r tc te tm < <(run "$work/this.test")
    if [ "$be" != "$te" ]; then
        echo "pair $i: events differ: base $be, this $te" >&2
        exit 1
    fi
    r="$(awk -v b="$bc" -v t="$tc" 'BEGIN { printf "%.3f", b / t }')"
    m="$(awk -v b="$bm" -v t="$tm" 'BEGIN { printf "%.3f", t / b }')"
    echo "pair $i: base ${bc} s ${bm} MiB, this ${tc} s ${tm} MiB, cpu base/this $r, rss this/base $m (events $te)"
    ratios="$ratios $r"
    rss="$rss $m"
done
echo "median cpu base/this $(echo "$ratios" | tr ' ' '\n' | sed '/^$/d' | median) over $pairs pairs"
echo "median rss this/base $(echo "$rss" | tr ' ' '\n' | sed '/^$/d' | median) over $pairs pairs"
