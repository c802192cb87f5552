#!/usr/bin/env python3
"""Telemetry-overhead gate: a search with CheckerOptions::telemetry on may
take at most 5% more wall time than the same search with it off, plus 50 ms.

Usage: python3 scripts/telemetry_overhead.py WORKLOAD [WORKLOAD ...]

Builds bench_nice through bench/nice/run.py (a no-op when it is up to
date), then for each workload runs PAIRS alternating pairs of
`bench_nice run WORKLOAD --setup-samples 1`, once without --telemetry and
once with it; the order within a pair flips from one pair to the next.
Every run must reproduce the workload's pinned counts ("ok": true), so
telemetry is also checked to leave the search unchanged. The gate
compares medians, not single runs, because one timing on shared cores
moves by more than the 5% it is meant to resolve:

    median(on wall_s) <= 1.05 * median(off wall_s) + 0.05 s

Exit code is 0 only when every workload passes.
"""
import json
import statistics
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ under bench/nice
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench" / "nice"))
import run as nice  # noqa: E402  (bench/nice/run.py: build() and bench())

PAIRS = 5
RATIO = 1.05
SLACK_S = 0.05


def wall(workload, telemetry):
    """wall_s of one bench_nice run; exits on a run that misses its pins."""
    rec = nice.bench("run", workload, "--setup-samples", "1",
                     *(["--telemetry"] if telemetry else []))
    if not rec.get("ok"):
        sys.exit(f"telemetry_overhead: {workload} telemetry={telemetry}: "
                 f"{rec.get('why')}")
    return rec["wall_s"]


def main():
    workloads = sys.argv[1:]
    if not workloads:
        sys.exit(__doc__)
    nice.build()
    failed = []
    for w in workloads:
        on, off = [], []
        for i in range(PAIRS):
            for telemetry in ((False, True) if i % 2 == 0 else (True, False)):
                (on if telemetry else off).append(wall(w, telemetry))
        med_on, med_off = statistics.median(on), statistics.median(off)
        bound = RATIO * med_off + SLACK_S
        ok = med_on <= bound
        print(json.dumps({
            "workload": w, "ok": ok, "pairs": PAIRS,
            "median_on_s": round(med_on, 4), "median_off_s": round(med_off, 4),
            "bound_s": round(bound, 4),
            "on_over_off": round(med_on / med_off, 4) if med_off else None,
            "on_s": on, "off_s": off}))
        if not ok:
            failed.append(w)
    if failed:
        sys.exit(f"telemetry_overhead: over {RATIO}x + {SLACK_S} s on "
                 f"{', '.join(failed)}")


if __name__ == "__main__":
    main()
