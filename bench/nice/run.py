#!/usr/bin/env python3
"""The checker's benchmark: build bench_nice from source, run workloads,
check every run against its pinned counts, and report metrics.

One workload, one mode:

    python3 bench/nice/run.py --workload NAME --seed N --seconds S --trace 0|1

  --trace 0 repeats fresh-process timed runs of the workload for S seconds
  and reports the end-to-end metrics of BENCHMARK.json (medians over the
  runs). --trace 1 runs the traced phase once and reports its per-layer
  metrics. The last stdout line is the result object; the line before it
  is the full record (every run, the fingerprint, the environment stamp).

The whole suite:

    python3 bench/nice/run.py --out FILE [--reps 7] [--seed S]

  Runs the four workloads round-robin, REPS fresh-process runs each, then
  the traced phase of each workload, prints every metric by name and unit,
  and writes FILE for bench/nice/compare.py.

Exhaustive DFS is deterministic: the seed only orders the runs. Exit code
is 0 only when every run reproduced its pinned counts.
"""
import argparse
import datetime
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build" / "nice"
BINARY = BUILD / "bench_nice"
SETUP_SAMPLES = 201
RUN_TIMEOUT_S = 120  # the runs cap themselves at 60 s of search


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "mc" / "checker.h").is_file():
        fail(f"no checker sources under {ROOT / 'src'}", 2)
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD.parent / "nice-build.log"
    steps = [["cmake", "--build", str(BUILD),
              "-j", str(min(4, os.cpu_count() or 1))]]
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD)])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=850).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-20:]
                fail("build failed:\n" + "\n".join(tail))


def bench(*args):
    """One bench_nice process; its JSON line, or a failed record."""
    try:
        p = subprocess.run([str(BINARY), *args], capture_output=True,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "why": f"timed out after {RUN_TIMEOUT_S} s"}
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return {"ok": False,
                "why": f"exit {p.returncode}: {p.stderr.strip()[-300:]}"}
    return json.loads(lines[-1])


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def describe():
    out = subprocess.run([str(BINARY), "describe"], capture_output=True,
                         text=True, timeout=60, check=True).stdout
    return {w["name"]: w for w in json.loads(out)}


def fingerprint(desc):
    """Hash of construction, options, initial state and pinned counts."""
    canon = json.dumps(desc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def environment():
    """The environment block of scripts/bench_env.py."""
    path = BUILD.parent / "env.json"
    path.write_text("{}")
    env = dict(os.environ,
               BENCH_TIMESTAMP=datetime.datetime.now(
                   datetime.timezone.utc).isoformat(timespec="seconds"),
               BENCH_CMAKE_CACHE=str(BUILD / "CMakeCache.txt"))
    try:
        subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_env.py"),
                        str(path)], cwd=ROOT, env=env, timeout=60,
                       capture_output=True, check=True)
        return json.loads(path.read_text()).get("environment", {})
    except (OSError, subprocess.SubprocessError, ValueError):
        return {}


def summary(values):
    """Median, quartiles, min/max and n of one metric's runs."""
    values = sorted(values)
    q1, q3 = ((statistics.quantiles(values, n=4)[i] for i in (0, 2))
              if len(values) > 1 else (values[0], values[0]))
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": values[0], "max": values[-1], "n": len(values)}


# --- timed phase --------------------------------------------------------------

def timed_run(name):
    return bench("run", name, "--setup-samples", str(SETUP_SAMPLES))


def timed(name, seconds):
    """Fresh-process runs of the workload until `seconds` have passed."""
    runs = []
    start = time.monotonic()
    while not runs or time.monotonic() - start < seconds:
        runs.append(timed_run(name))
        if not runs[-1]["ok"]:
            break
    return runs


def end_to_end(runs, metrics):
    ok = [r for r in runs if r["ok"]]
    return {m["name"]: statistics.median(r[m["name"]] for r in ok)
            for m in metrics} if ok else {}


# --- traced phase -------------------------------------------------------------

def traced(name, desc, rng):
    """Untraced reference runs plus the span replay of one workload."""
    opts = desc["options"]
    plain = opts["reduction"] == "NONE"
    jobs = {"e2e": ("run", name),
            "telemetry": ("run", name, "--telemetry"),
            "t2": ("run", name, "--threads", "2", "--reduction", "none"),
            "replay": ("replay", name),
            "probe": ("replay", name, "--probes")}
    if not (plain and opts["threads"] == 1):
        jobs["base"] = ("run", name, "--threads", "1", "--reduction", "none")
    if not (plain and opts["threads"] == 4):
        jobs["t4"] = ("run", name, "--threads", "4", "--reduction", "none")
    order = sorted(jobs)
    rng.shuffle(order)
    return {k: bench(*jobs[k]) for k in order}


def per_call(spans, *names):
    count = sum(spans[n]["count"] for n in names)
    return sum(spans[n]["ns"] for n in names) / count if count else 0.0


def layer_metrics(runs):
    """Every per-layer metric of the traced phase, including the ones
    BENCHMARK.json leaves out (per-kind apply times of rare kinds, the
    reduction ratios of the POR workload)."""
    e2e, t2, tel, rp, pr = (runs[k] for k in
                            ("e2e", "t2", "telemetry", "replay", "probe"))
    # The workload's own configuration stands in for the 1- or 4-thread
    # kNone run when it is that run.
    base, t4 = runs.get("base", e2e), runs.get("t4", e2e)
    spans = rp["spans"]
    applies = [n for n in spans if n.startswith("executor.apply.")]

    def key_layer(name):
        """Per-call ns of a key layer: from the path replay when the
        workload uses the layer, from the probe replay otherwise."""
        return per_call((pr if name in pr["probes"] else rp)["spans"], name)

    fp = pr if "por.footprint" in pr["probes"] else rp
    coll = pr if "collapse.key" in pr["probes"] else rp
    m = {
        "search.transitions_per_s": e2e["transitions"] / e2e["wall_s"],
        "search.unique_per_s": e2e["unique"] / e2e["wall_s"],
        "search.revisit_ratio": e2e["revisits"] / e2e["transitions"],
        "state.clone_ns": per_call(spans, "state.clone"),
        "state.hash_ns": key_layer("state.hash"),
        "executor.apply_ns": per_call(spans, *applies),
        "executor.enabled_ns": per_call(spans, "executor.enabled",
                                        "executor.enabled_discover"),
        "executor.enabled_discover_ns": per_call(
            spans, "executor.enabled_discover"),
        "executor.quiescence_ns": per_call(spans, "executor.quiescence"),
        "discover.handler_runs": rp["handler_runs"],
        "discover.solver_queries": rp["solver_queries"],
        "discover.enabled_share": spans["executor.enabled_discover"]["ns"] / max(
            1, spans["executor.enabled"]["ns"]
            + spans["executor.enabled_discover"]["ns"]),
        "collapse.key_ns": key_layer("collapse.key"),
        "collapse.dedupe_ratio": coll["collapse_dedupe_ratio"],
        "seen.insert_ns": per_call(spans, "seen.insert"),
        "seen.bytes_per_state": rp["store_bytes"] / rp["unique"],
        "sym.canonical_key_ns": key_layer("sym.canonical_key"),
        "por.footprint_ns": key_layer("por.footprint"),
        "por.footprint_hit_rate": fp["footprint_hits"] / max(
            1, fp["footprint_hits"] + fp["footprint_misses"]),
        "parallel.speedup_2": base["wall_s"] / t2["wall_s"],
        "parallel.speedup_4": base["wall_s"] / t4["wall_s"],
        "parallel.cpu_per_wall": t4["cpu_s"] / t4["wall_s"],
    }
    for n in applies:
        m[n.replace("executor.apply.", "executor.apply_ns.")] = per_call(
            spans, n)
    for phase, ns in tel["phases_ns"].items():
        m[f"phase.{phase}.share"] = ns / tel["telemetry_wall_ns"]
    m["trace.overhead_ratio"] = rp["wall_s"] / base["wall_s"]
    m["trace.unattributed_share"] = 1 - sum(
        s["ns"] for s in spans.values()) / 1e9 / rp["wall_s"]
    if e2e["options"]["reduction"] != "NONE":
        m["por.transitions_saved"] = 1 - e2e["transitions"] / base["transitions"]
        m["por.wall_ratio"] = e2e["wall_s"] / base["wall_s"]
    return m


# --- modes ----------------------------------------------------------------------

def metric_line(runs, values, metrics):
    attempted = len(runs)
    failed = sum(not r["ok"] for r in runs)
    correct = failed == 0 and all(m["name"] in values for m in metrics)
    out = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
           for m in metrics} if correct else {}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": out}


def one_workload(args, desc):
    s = spec()
    rng = random.Random(args.seed)
    record = {"workload": args.workload, "seed": args.seed,
              "fingerprint": fingerprint(desc),
              "construction": desc["construction"],
              "environment": environment()}
    if args.trace:
        runs = traced(args.workload, desc, rng)
        ok = all(r["ok"] for r in runs.values())
        values = layer_metrics(runs) if ok else {}
        record.update(runs=runs, per_layer=values)
        line = metric_line(list(runs.values()), values, s["per_layer"])
    else:
        runs = timed(args.workload, args.seconds)
        values = end_to_end(runs, s["end_to_end"])
        record.update(runs=runs, end_to_end=values)
        line = metric_line(runs, values, s["end_to_end"])
    print(json.dumps(record))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def suite(args, descs):
    s = spec()
    rng = random.Random(args.seed)
    names = list(descs)
    runs = {n: [] for n in names}
    for rep in range(args.reps):
        order = names[:]
        rng.shuffle(order)
        for n in order:
            r = timed_run(n)
            runs[n].append(r)
            print(f"[{rep + 1}/{args.reps}] {n}: "
                  + (f"{r['wall_s']:.3f} s" if r["ok"] else r["why"]),
                  file=sys.stderr, flush=True)
    record = {"benchmark": "bench/nice", "seed": args.seed,
              "reps": args.reps, "workloads": {}}
    attempted = failed = 0
    for n in names:
        print(f"traced: {n}", file=sys.stderr, flush=True)
        trace = traced(n, descs[n], rng)
        every = runs[n] + list(trace.values())
        attempted += len(every)
        failed += sum(not r["ok"] for r in every)
        ok = [r for r in runs[n] if r["ok"]]
        record["workloads"][n] = {
            "fingerprint": fingerprint(descs[n]),
            "construction": descs[n]["construction"],
            "runs": runs[n],
            "end_to_end": {m["name"]: dict(summary([r[m["name"]] for r in ok]),
                                           unit=m["unit"])
                           for m in s["end_to_end"]} if ok else {},
            "per_layer": (layer_metrics(trace)
                          if all(r["ok"] for r in trace.values()) else {}),
            "traced_runs": trace,
        }
    record["failed_share"] = failed / attempted
    record["attempted"] = attempted
    record["failed"] = failed
    record["environment"] = environment()
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")

    units = {m["name"]: m["unit"] for m in s["end_to_end"] + s["per_layer"]}
    for n, w in record["workloads"].items():
        print(f"== {n} (fingerprint {w['fingerprint']})")
        for name, st in w["end_to_end"].items():
            print(f"  {name:34s} {st['median']:14.6g} {st['unit']:6s}"
                  f" q1 {st['q1']:.6g} q3 {st['q3']:.6g}"
                  f" min {st['min']:.6g} max {st['max']:.6g} n {st['n']}")
        for name, v in sorted(w["per_layer"].items()):
            # Record-only metrics are per-call times or ratios.
            unit = units.get(name, "ns" if "_ns" in name else "ratio")
            print(f"  {name:34s} {v:14.6g} {unit}")
    print(f"failed_share {record['failed_share']:.6g} ratio "
          f"({failed} of {attempted} runs failed)")
    return 0 if failed == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--reps", type=int, default=7)
    args = ap.parse_args()
    if (args.workload is None) == (args.out is None):
        fail("give exactly one of --workload and --out", 2)
    if args.reps < 1:
        fail("--reps must be at least 1", 2)
    build()
    descs = describe()
    if args.out:
        return suite(args, descs)
    if args.workload not in descs:
        fail(f"unknown workload {args.workload!r}; known: {sorted(descs)}", 2)
    return one_workload(args, descs[args.workload])


if __name__ == "__main__":
    sys.exit(main())
