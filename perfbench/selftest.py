#!/usr/bin/env python3
"""Self-test of the benchmark harness on tiny spaces; takes a few seconds.

    python3 perfbench/selftest.py

Checks that
  - the workloads in BENCHMARK.json are exactly those run.py defines, and
    the budget_abort reason names the cap run.py uses;
  - runs on tiny spaces, solved and aborted, emit exactly the metrics
    BENCHMARK.json declares for --trace 0 and --trace 1, each with its
    declared unit, and no failures;
  - a wrong reference answer makes ``failed`` nonzero and the exit
    status nonzero;
  - the recorded (2,4,2) survivors equal the exhaustive oracle's.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")


def run_main(workloads: dict, name: str, trace: int) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "1", "--seconds", "0.2",
                         "--trace", str(trace)], workloads)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def main() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    expect(names == set(run.WORKLOADS), f"workloads {sorted(names)} vs {sorted(run.WORKLOADS)}")
    why = next(w["why"] for w in spec["workloads"] if w["name"] == "budget_abort")
    expect(f"max_modules={run.ABORT_CAP}" in why, "budget_abort reason names another cap")

    declared = run.declared_metrics()
    tiny = {
        "tiny": run.Workload(spaces=((2, 4, 2), (3, 6, 2))),
        "tiny_abort": run.Workload(spaces=((4, 8, 3),), max_modules=200),
        "wrong": run.Workload(
            spaces=((2, 4, 2), (3, 6, 2)),
            expect=lambda env, space: frozenset([env.known.KNOWN_TABLES[(3, 6, 2)]]),
        ),
    }
    for name in ("tiny", "tiny_abort"):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run_main(tiny, name, trace)
            expect(code == 0, f"{name} --trace {trace} exited {code}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} --trace {trace} result {result}")
            metrics = result["metrics"]
            expect(set(metrics) == set(declared[kind]),
                   f"{name} --trace {trace} emits {sorted(metrics)}")
            for metric, unit in declared[kind].items():
                expect(metrics[metric]["unit"] == unit, f"{metric} unit {metrics[metric]}")
                expect(isinstance(metrics[metric]["value"], (int, float)), f"{metric} value")

    for trace in (0, 1):
        code, result = run_main(tiny, "wrong", trace)
        expect(code != 0, f"wrong reference exited 0 with --trace {trace}")
        expect(not result["correct"] and 0 < result["failed"] < result["attempted"],
               f"wrong reference result {result}")

    env = run.setup(tiny["tiny"])[1]
    from eqgrass.oracle import naive_solve  # the same import as env's

    expect(sorted(env.expected[(2, 4, 2)]) == naive_solve(2, 4, 2),
           "recorded (2,4,2) survivors differ from naive_solve")
    print("selftest ok")


if __name__ == "__main__":
    sys.exit(main())
