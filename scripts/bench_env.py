#!/usr/bin/env python3
"""Embed a reproducibility `environment` block into a BENCH_*.json record.

Usage: BENCH_TIMESTAMP=<iso8601> python3 scripts/bench_env.py BENCH_x.json

Numbers without provenance are not comparable: the same scenario runs 3x
faster across compiler versions or CPU generations. bench/nice/run.py
routes its record through this script, which stamps in the git
SHA, compiler identity and Release flags (from the CMake cache), CPU
model, core count, and the wall-clock timestamp the shell passed in (the
benchmarks themselves cannot know when their record is being committed).
"""
import json
import os
import re
import subprocess
import sys


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=10).stdout
        return out.splitlines()[0].strip() if out else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def release_flags(cache_path):
    """CMAKE_CXX_FLAGS_RELEASE from the build's CMake cache."""
    try:
        with open(cache_path) as f:
            for line in f:
                m = re.match(r"CMAKE_CXX_FLAGS_RELEASE:\w+=(.*)", line)
                if m:
                    return m.group(1).strip() or "unknown"
    except OSError:
        pass
    return "unknown"


def main():
    if len(sys.argv) != 2:
        print(f"usage: {sys.argv[0]} BENCH_x.json", file=sys.stderr)
        return 2
    path = sys.argv[1]
    with open(path) as f:
        record = json.load(f)
    record["environment"] = {
        "git_sha": first_line(["git", "rev-parse", "HEAD"]),
        "compiler": first_line([os.environ.get("CXX", "c++"), "--version"]),
        "cxx_flags_release": release_flags(
            os.environ.get("BENCH_CMAKE_CACHE", "build/CMakeCache.txt")),
        "cpu_model": cpu_model(),
        "cores": os.cpu_count(),
        "timestamp_utc": os.environ.get("BENCH_TIMESTAMP", "unknown"),
    }
    with open(path, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
