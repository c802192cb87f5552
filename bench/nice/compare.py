#!/usr/bin/env python3
"""Compare two suite records of bench/nice/run.py --out.

Usage: python3 bench/nice/compare.py A.json B.json

A is the reference (the parent), B the candidate. For every workload and
every end-to-end metric of BENCHMARK.json it prints both medians and
quartiles and one verdict:

  ok          B is not worse than A by more than the metric's bound, or
              every run of B reads better than every run of A;
  regressed   B's median is worse than A's by more than the bound;
  unresolved  either side's quartile spread is wider than the bound, so
              the runs cannot tell.

failed_share regresses on any increase. Records whose workload
fingerprints differ (another construction, options or pinned counts) are
refused: their numbers measure different work. Exit code: 0 when nothing
regressed, 1 when something did, 2 on a refused comparison.
"""
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(a, b, bound, better):
    """Verdict of candidate runs `b` against reference runs `a`."""
    sign = 1 if better == "lower" else -1
    ma, mb = statistics.median(a), statistics.median(b)
    if all(sign * (y - x) < 0 for x in a for y in b):
        return "ok"
    spread = max((q3 - q1) / m for (q1, q3), m in
                 ((quartiles(a), ma), (quartiles(b), mb)))
    if spread > bound:
        return "unresolved"
    return "regressed" if sign * (mb - ma) / ma > bound else "ok"


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in sys.argv[1:])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w for w in a["workloads"] if w in b["workloads"]]
    differ = [w for w in names if a["workloads"][w]["fingerprint"]
              != b["workloads"][w]["fingerprint"]]
    if differ:
        print("refused: workload fingerprints differ for "
              + ", ".join(differ), file=sys.stderr)
        return 2
    if not names:
        print("refused: the records share no workload", file=sys.stderr)
        return 2

    regressed = False
    print(f"{'workload':20s} {'metric':12s} {'A median [q1, q3]':>36s} "
          f"{'B median [q1, q3]':>36s}  bound  verdict")
    for w in names:
        ra = [r for r in a["workloads"][w]["runs"] if r["ok"]]
        rb = [r for r in b["workloads"][w]["runs"] if r["ok"]]
        for m in spec["end_to_end"]:
            n = m["name"]
            if not ra or not rb:
                v, cells = "unresolved", ("no runs", "no runs")
            else:
                va, vb = [r[n] for r in ra], [r[n] for r in rb]
                v = verdict(va, vb, m["bound"], m["better"])
                cells = tuple(
                    f"{statistics.median(x):.6g} [{quartiles(x)[0]:.6g}, "
                    f"{quartiles(x)[1]:.6g}] {m['unit']}" for x in (va, vb))
            regressed |= v == "regressed"
            print(f"{w:20s} {n:12s} {cells[0]:>36s} {cells[1]:>36s}  "
                  f"{m['bound']:5.2f}  {v}")
    fa, fb = a["failed_share"], b["failed_share"]
    v = "regressed" if fb > fa else "ok"
    regressed |= v == "regressed"
    print(f"{'all':20s} {'failed_share':12s} {fa:>36.6g} {fb:>36.6g}  "
          f"{0:5.2f}  {v}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
