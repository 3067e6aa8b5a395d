#!/usr/bin/env python3
"""Time ``solve`` on the fixed ladder of spaces and record the rows as JSON.

Each space runs under the default budget through the public ``solve``.
Its wall time is the median of 7 runs of ``solve`` plus reading the
survivors, its peak is the ``tracemalloc`` peak of one more run, and its
outcome is the survivor count or the abort message.  The rows go under
``--label``; rows of other labels already in ``--out`` are kept, so one
file holds a baseline and a change measured on the same host:

    PYTHONPATH=<baseline checkout>/src python scripts/bench.py --out BENCH.json --label parent
    PYTHONPATH=src python scripts/bench.py --out BENCH.json --label change
"""

import argparse
import json
import os
import platform
import statistics
import time
import tracemalloc
from pathlib import Path

from eqgrass.search import DEFAULT_BUDGET, solve

LADDER = [(3, 6, 3), (3, 7, 2), (4, 8, 2), (2, 13, 6), (4, 8, 3)]
RUNS = 7


def outcome(space: tuple[int, int, int]) -> tuple[int | None, str | None]:
    """The survivor count, or the abort message, of one ``solve``."""
    report = solve(*space, budget=DEFAULT_BUDGET)
    return (None, report.failure) if report.incomplete else (len(report.survivors), None)


def measure(space: tuple[int, int, int]) -> dict:
    times = []
    for _ in range(RUNS):
        began = time.perf_counter()
        survivors, abort = outcome(space)
        times.append(time.perf_counter() - began)
    tracemalloc.start()
    try:
        outcome(space)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {
        "space": list(space),
        "wall_ms": round(statistics.median(times) * 1e3, 3),
        "peak_mib": round(peak / 2**20, 3),
        "survivors": survivors,
        "abort": abort,
    }


def main() -> None:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--out", type=Path, required=True, help="JSON file to write or update")
    ap.add_argument("--label", required=True, help="name of this run's rows, e.g. parent or change")
    args = ap.parse_args()

    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data.setdefault("rows", {})[args.label] = {
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "spaces": [measure(space) for space in LADDER],
    }
    data.update(ladder=[list(space) for space in LADDER], runs=RUNS)
    args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    for row in data["rows"][args.label]["spaces"]:
        print(row)


if __name__ == "__main__":
    main()
