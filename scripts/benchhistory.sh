#!/usr/bin/env bash
# benchhistory: append one line to BENCH_history.jsonl, the append-only
# trajectory of the ledger's end-to-end numbers (ROADMAP item 2(a)).
#
#   scripts/benchhistory.sh [checkout [note]]
#
# Runs `bash bench/run.sh -workload W -trace 0` for the four workloads in
# `checkout` (default: this checkout; pass a clone of another commit to
# record that commit with the same script) and appends
#
#   {"commit", "tree", "date", "go", "nproc", "note", "workloads": {W: <raw result line>}}
#
# to THIS checkout's BENCH_history.jsonl. The raw result line is bench's
# own last stdout line, untouched. Lines are never rewritten or reordered;
# numbers from different hosts are not comparable, which is what the
# fingerprint fields are for. A commit suffixed "+dirty" was measured with
# uncommitted changes on top; "tree" is the git tree hash of exactly what
# was measured (HEAD^{tree}, or the tree of `git stash create` when
# dirty; untracked files are not in it), so a dirty line can be matched
# to the commit that merged it: `git diff --stat <tree> <commit>` lists
# only what changed after the measurement, such as this history file.
# Wired to `make benchhistory`; not part of ci (it takes minutes and
# measures the host as much as the code).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
src="$(cd "${1:-$here}" && pwd)"
note="${2:-}"
out="$here/BENCH_history.jsonl"

commit="$(git -C "$src" rev-parse --short HEAD)"
tree="$(git -C "$src" rev-parse 'HEAD^{tree}')"
if [ -n "$(git -C "$src" status --porcelain)" ]; then
    commit="$commit+dirty"
    stash="$(git -C "$src" stash create)"
    [ -z "$stash" ] || tree="$(git -C "$src" rev-parse "$stash^{tree}")"
fi

line="{\"commit\":\"$commit\",\"tree\":\"$tree\",\"date\":\"$(date -u +%Y-%m-%dT%H:%M:%SZ)\",\"go\":\"$(go version)\",\"nproc\":$(nproc),\"note\":\"$note\",\"workloads\":{"
sep=""
for w in fig6_small_cold paper_point_serial paper_point_sharded served_mix; do
    echo "benchhistory: $commit $w" >&2
    res="$(cd "$src" && bash bench/run.sh -workload "$w" -trace 0 | tail -n 1)"
    case "$res" in
    '{"correct":true'*) ;;
    *) echo "benchhistory: $w did not end with a correct result line: $res" >&2; exit 1 ;;
    esac
    line="$line$sep\"$w\":$res"
    sep=","
done
echo "$line}}" >> "$out"
echo "benchhistory: appended $commit to $out" >&2
