#!/usr/bin/env bash
# servesmoke: end-to-end smoke for cmd/hxserved, the persistent sweep
# service. Two phases:
#
#   A. cold compute — start the daemon on a random port with a fresh
#      checkpoint store, submit the same sweep `make smoke` runs on the
#      CLI, and require the served result.csv to be byte-identical to
#      cmd/hxsweep's stdout for the identical configuration.
#   B. crash resume — submit a second sweep and kill -9 the daemon
#      mid-job, then restart it against the same store. The first sweep
#      must replay entirely from cache (provenance cached_jobs == the
#      completed-cell count, zero new computes) and the second must complete to the
#      same bytes the CLI produces, resuming whatever cells the crashed
#      run had already persisted.
#
# Wired into `make ci` via the servesmoke target.
set -euo pipefail

GO=${GO:-go}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/hx-servesmoke.XXXXXX")
STORE="$WORK/store"
DAEMON_PID=""

cleanup() {
    [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "servesmoke FAIL: $*" >&2; exit 1; }

$GO build -o "$WORK/hxserved" ./cmd/hxserved
$GO build -o "$WORK/hxsweep" ./cmd/hxsweep

# The experiment both sides run: UR, DOR+VAL, loads 0.25..1.0, seeds 1/2.
SWEEP_FLAGS=(-pattern UR -algs DOR,VAL -step 0.25 -warmup 1000 -window 1000 -q)
req() { # $1 = seed
    printf '{"patterns":["UR"],"algorithms":["DOR","VAL"],"step":0.25,"config":{"Seed":%d},"opts":{"Warmup":1000,"Window":1000}}' "$1"
}

"$WORK/hxsweep" "${SWEEP_FLAGS[@]}" -seed 1 > "$WORK/cli-1.csv"
"$WORK/hxsweep" "${SWEEP_FLAGS[@]}" -seed 2 > "$WORK/cli-2.csv"

start_daemon() {
    rm -f "$WORK/addr"
    "$WORK/hxserved" -addr 127.0.0.1:0 -addr-file "$WORK/addr" \
        -checkpoint-dir "$STORE" -j 2 2>> "$WORK/daemon.log" &
    DAEMON_PID=$!
    for _ in $(seq 1 100); do
        [ -s "$WORK/addr" ] && break
        kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died on startup: $(cat "$WORK/daemon.log")"
        sleep 0.1
    done
    [ -s "$WORK/addr" ] || fail "daemon never wrote its address file"
    BASE="http://$(cat "$WORK/addr")"
}

submit() { # $1 = seed; prints the job id
    curl -sS -X POST --data "$(req "$1")" "$BASE/v1/sweeps" \
        | grep -o '"id": "[0-9a-fx]*"' | head -1 | cut -d'"' -f4
}

wait_done() { # $1 = job id
    for _ in $(seq 1 300); do
        state=$(curl -sS "$BASE/v1/jobs/$1" | grep -o '"state": "[a-z]*"' | cut -d'"' -f4)
        case "$state" in
            done) return 0 ;;
            failed|cancelled) fail "job $1 ended $state" ;;
        esac
        sleep 0.1
    done
    fail "job $1 did not finish in 30s"
}

json_field() { # $1 = file, $2 = field; prints the first integer value
    grep -o "\"$2\": [0-9]*" "$1" | head -1 | awk '{print $2}'
}

# --- Phase A: cold compute, byte-identity against the CLI ---
start_daemon
ID1=$(submit 1)
[ -n "$ID1" ] || fail "submit returned no job id"
wait_done "$ID1"
curl -sS "$BASE/v1/jobs/$ID1/result.csv" > "$WORK/served-1.csv"
cmp "$WORK/cli-1.csv" "$WORK/served-1.csv" \
    || fail "served CSV differs from hxsweep CSV (seed 1)"

# --- Phase B: kill -9 mid-job, restart, resume from the store ---
ID2=$(submit 2)
[ -n "$ID2" ] || fail "second submit returned no job id"
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""

start_daemon
ID1B=$(submit 1)
[ "$ID1B" = "$ID1" ] || fail "content-addressed job id changed across restart: $ID1 vs $ID1B"
wait_done "$ID1B"
curl -sS "$BASE/v1/jobs/$ID1B/result.csv" > "$WORK/served-1b.csv"
cmp "$WORK/cli-1.csv" "$WORK/served-1b.csv" \
    || fail "cache-served CSV differs from the cold one (seed 1)"
curl -sS "$BASE/v1/jobs/$ID1B/result.json" > "$WORK/result-1b.json"
# Every completed cell must have come from the store; the difference
# between num_jobs and completed is the speculative points the early
# stop cancels past saturation — those are never computed or cached.
cached=$(json_field "$WORK/result-1b.json" cached_jobs)
completed=$(json_field "$WORK/result-1b.json" completed)
[ -n "$cached" ] && [ "$cached" = "$completed" ] \
    || fail "restart recomputed: cached_jobs=$cached of completed=$completed, want all completed cells cached"

ID2B=$(submit 2)
wait_done "$ID2B"
curl -sS "$BASE/v1/jobs/$ID2B/result.csv" > "$WORK/served-2.csv"
cmp "$WORK/cli-2.csv" "$WORK/served-2.csv" \
    || fail "post-crash CSV differs from hxsweep CSV (seed 2)"

curl -sS "$BASE/v1/cache/stats" | grep -q '"hits"' \
    || fail "cache stats endpoint is missing store counters"

kill "$DAEMON_PID" 2>/dev/null && wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""
echo "servesmoke OK"
