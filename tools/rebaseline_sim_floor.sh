#!/usr/bin/env bash
# Re-baselines the interpreter-throughput perf-smoke floor
# (bench/sim_throughput_floor.json, checked by the sim_throughput_floor
# ctest). Run this ON A QUIET MACHINE after an *intentional* change to
# interpreter performance; the stored floor is 80% of the best of three
# measurements, so machine noise does not turn into spurious CI failures.
#
#   $ tools/rebaseline_sim_floor.sh [build-dir]     # default: ./build
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
BIN="$BUILD/bench/extra_sim_throughput"
OUT="bench/sim_throughput_floor.json"

if [[ ! -x "$BIN" ]]; then
  echo "error: $BIN not built (cmake --build $BUILD --target extra_sim_throughput)" >&2
  exit 2
fi

# Best of three: the floor guards against regressions, so it should be
# derived from what the machine can actually do, not from a noisy run.
best=""
for i in 1 2 3; do
  "$BIN" --workload=mxm --write-floor="$OUT.try$i" >/dev/null
  m=$(sed -n 's/.*"measured_minstr_per_sec": \([0-9.]*\).*/\1/p' "$OUT.try$i")
  echo "run $i: $m Minstr/sec"
  if [[ -z "$best" ]] || awk "BEGIN{exit !($m > $best)}"; then
    best="$m"
    mv "$OUT.try$i" "$OUT"
  else
    rm "$OUT.try$i"
  fi
done

echo "baseline: $best Minstr/sec -> floor $(sed -n 's/.*"floor_minstr_per_sec": \([0-9.]*\).*/\1/p' "$OUT") ($OUT)"
