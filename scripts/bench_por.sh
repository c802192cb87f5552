#!/usr/bin/env bash
# Build (Release) and run the partial-order-reduction benchmark, writing
# the machine-readable BENCH_por.json (or $1): per bundled scenario, the
# transitions explored under NONE / SLEEP, the reduction ratio, and the
# memoization-layer record (memo-on vs memo-off wall time per mode,
# footprint/discovery hit rates, resident bytes). The benchmark enforces
# its contracts at runtime and exits non-zero on any violation, so a
# successful run doubles as a check:
#   * soundness — identical violation sets / unique-state / quiescent
#     counts under SLEEP, ≤ transitions vs the unreduced run;
#   * resume identity — an interrupted-and-resumed run reports the
#     uninterrupted run's totals, under NONE and SLEEP;
#   * memo count-invisibility — every memo-on run must report counts
#     identical to its memo-off twin;
#   * memo hit-rate floor — the footprint hit rate on scenarios with
#     enough lookups must stay above the keying-regression floor.
#
# Usage: scripts/bench_por.sh [out.json] [repeats] [progress.ndjson]
# `repeats` (default 3) re-runs each cell and keeps the fastest wall
# time, which is what the committed BENCH_por.json should be generated
# with on a quiet machine. A third argument streams NDJSON progress
# snapshots of the telemetry-on runs to that path (CI artifact).
#
# The record carries an `environment` block (git SHA, compiler, Release
# flags, CPU model, core count, timestamp) so committed numbers stay
# comparable across machines — see scripts/bench_env.py.
set -euo pipefail

cd "$(dirname "$0")/.."
OUT="${1:-BENCH_por.json}"
REPEATS="${2:-3}"
PROGRESS="${3:-}"

cmake -B build -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build -j --target bench_por >/dev/null

if [ -n "$PROGRESS" ]; then
  ./build/bench_por --json "$OUT" --repeat "$REPEATS" --progress "$PROGRESS"
else
  ./build/bench_por --json "$OUT" --repeat "$REPEATS"
fi
BENCH_TIMESTAMP="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
  python3 scripts/bench_env.py "$OUT"
