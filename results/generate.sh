#!/bin/sh
# Regenerates every experiment CSV at the default (256-node) scale.
#
#   sh results/generate.sh [outdir]
#
# outdir defaults to results/ (the committed files); any other directory
# is created if needed, so a checkout's regeneration can be compared with
# the committed files or with another checkout's (cmp). PAPER=1 adds the
# true 4,096-node 8x8x8 t=8 UR panel.
#
# Sweeps run on the parallel harness: set JOBS to bound the worker pool
# (default 0 = GOMAXPROCS). Results are bit-identical at any JOBS value.
# Each hxsweep invocation also writes a JSON run manifest (per-job wall
# time, simulated cycles, events/sec) next to its CSV. outdir/generate.log
# gets one line per command: the CSV it wrote, its wall time in seconds
# and, for a sweep, its manifest's total event count ("-" otherwise).
# The tools are built once first, so the times are the runs'.
set -e
out="${1:-}"
if [ -n "$out" ]; then
  mkdir -p "$out"
  out="$(cd "$out" && pwd)"
fi
cd "$(dirname "$0")/.."
out="${out:-$(pwd)/results}"
JOBS="${JOBS:-0}"
bin="$(mktemp -d)"
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/" ./cmd/hxsweep ./cmd/hxstencil ./cmd/hxcost
: > "$out/generate.log"

# run NAME CMD...: runs CMD with its CSV to outdir/NAME.csv and logs the
# run (see above); a sweep writes its manifest to outdir/NAME.manifest.json.
run() {
  name="$1"; shift
  rm -f "$out/$name.manifest.json"
  t0="$(date +%s.%N)"
  "$@" > "$out/$name.csv"
  t1="$(date +%s.%N)"
  events=-
  if [ -f "$out/$name.manifest.json" ]; then
    events="$(sed -n 's/^  "total_events": \([0-9]*\),$/\1/p' "$out/$name.manifest.json")"
  fi
  awk -v n="$name" -v a="$t0" -v b="$t1" -v e="$events" \
    'BEGIN { printf "%s wall_s=%.2f events=%s\n", n, b - a, e }' >> "$out/generate.log"
}

for pat in UR BC URBx URBy URBz S2 DCR; do
  run fig6_$pat "$bin/hxsweep" -pattern $pat -step 0.1 -warmup 8000 -window 8000 \
    -j "$JOBS" -manifest "$out/fig6_$pat.manifest.json"
done
run fig6g_throughput "$bin/hxsweep" -throughput -warmup 8000 -window 8000 \
  -j "$JOBS" -manifest "$out/fig6g_throughput.manifest.json"
# Resilience: throughput/latency/loss vs number of failed links at a fixed
# mid-range load. Fault-aware algorithms (DimWAR, OmniWAR) hold
# delivered_frac at 1.0; the dimension-ordered baselines detect-and-drop.
run resilience "$bin/hxsweep" -resilience 6 -load 0.5 -pattern UR \
  -algs DOR,VAL,UGAL,UGAL+,DimWAR,OmniWAR -warmup 8000 -window 8000 \
  -j "$JOBS" -manifest "$out/resilience.manifest.json"
run fig8 "$bin/hxstencil" -bytes 100000
run fig8c_16iter "$bin/hxstencil" -bytes 100000 -iters 16 -algs DimWAR,OmniWAR,UGAL,UGAL+
run fig4 "$bin/hxstencil" -fig4 -bytes 100000
run fig2 "$bin/hxcost" -fig 2
run fig3 "$bin/hxcost" -fig 3
# Paper scale (PAPER=1): the true 4,096-node 8x8x8 t=8 UR panel, with a
# reduced warmup/window that keeps the serial run around ten minutes.
# Deterministic and manifest-logged like every other sweep.
if [ "${PAPER:-0}" = 1 ]; then
  run fig6_UR_paper "$bin/hxsweep" -pattern UR -algs DOR,DimWAR,OmniWAR -step 0.1 \
    -warmup 10000 -window 10000 -paper -j "$JOBS" -manifest "$out/fig6_UR_paper.manifest.json"
fi
echo ALL_DONE
