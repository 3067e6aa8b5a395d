#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of ``eqgrass.search.solve``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from ``src/`` of the same checkout; nothing is
installed.  Every run first sets up (imports ``eqgrass`` and builds the
reference answers) several times and reports the median as ``setup_s``.
It then repeats untraced passes over the workload's spaces for about
``--seconds`` seconds (at least one pass) and reports the median pass as
``wall_s``, and the process's peak resident set as ``peak_mib``.  With
``--trace 1`` it instead alternates untraced passes with passes through
the traced pipeline in ``tracing.py`` and reports the per-layer metrics,
plus the peak Python heap of one more untimed pass under ``tracemalloc``.  That pass is
kept out of the end-to-end run because ``tracemalloc`` slows ``solve``
up to fivefold ((2,13,6): about 63 s instead of 13 s).

Every pass compares each space's survivor set (or its budget abort) with
the reference; a mismatch makes ``correct`` false and the exit status 1.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where ``attempted`` counts solved spaces over all passes and ``failed``
those whose result disagreed with the reference.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import tracing  # from the script's own directory

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# The closure cap of ``budget_abort``.  Closure speed falls as the visited
# set grows (about 15k states/s at 20k states, 10k/s at 100k), so the cap
# is part of the workload; changing it changes what is measured.
ABORT_CAP = 50_000

SETUP_REPEATS = 25

Space = tuple[int, int, int]


@dataclass(frozen=True)
class Workload:
    spaces: tuple[Space, ...]
    max_modules: int | None = None  # None keeps the default budget
    # Maps (env, space) to the expected outcome: the exact survivor set,
    # or a fragment the budget-abort message must contain.
    expect: Callable[[Env, Space], frozenset | str] | None = None  # None: published_reference


WORKLOADS: dict[str, Workload] = {
    # Many pages: relaxation checks between pages (page reduction and the
    # filter) dominate, and the census does its largest share of work.
    "wide_census": Workload(spaces=((2, 11, 5), (2, 13, 6))),
    # Few pages, large closures: the closure search and the filter work.
    "deep_closure": Workload(spaces=((3, 6, 3), (3, 7, 2), (4, 8, 2))),
    # The closure search alone, ending in a clean abort on the cap.
    "budget_abort": Workload(spaces=((4, 8, 3),), max_modules=ABORT_CAP),
}


class Env:
    """The names one import of ``eqgrass`` provides, plus its references."""

    def __init__(self, workload: Workload):
        self.eqgrass = importlib.import_module("eqgrass")
        self.search = search = importlib.import_module("eqgrass.search")
        self.schubert = importlib.import_module("eqgrass.schubert")
        self.known = importlib.import_module("eqgrass.known")
        self.FreeModule = self.eqgrass.FreeModule
        self.BiPoly = self.eqgrass.BiPoly
        if workload.max_modules is None:
            self.budget = search.DEFAULT_BUDGET
        else:
            self.budget = search.Budget(max_modules=workload.max_modules)
        expect = workload.expect or published_reference
        self.expected = {space: expect(self, space) for space in workload.spaces}


def published_reference(env: Env, space: Space):
    """The expected outcome of ``solve`` on one space under env.budget.

    A reduced closure cap is only set where the abort is the expected
    outcome, so the reference is then the abort message.
    """
    if env.budget.max_modules != env.search.DEFAULT_MAX_MODULES:
        return f"exceeded {env.budget.max_modules} modules"
    known = env.known
    if space in known.KNOWN_TABLES:
        return frozenset([known.KNOWN_TABLES[space]])
    if space == (3, 6, 3):
        return frozenset(env.eqgrass.module_from_poly(f) for f in known.six_candidates())
    return recorded_reference(env, space)


# Published survivor counts for spaces whose survivor sets are not in
# ``eqgrass.known``; the sets themselves are in references.json.
PUBLISHED_COUNTS = {(3, 7, 2): 2, (4, 8, 2): 6}


def recorded_reference(env: Env, space: Space) -> frozenset:
    data = json.loads((BENCH_DIR / "references.json").read_text())
    entry = data["survivors"]["%d,%d,%d" % space]
    survivors = frozenset(
        env.FreeModule.from_counts({(a, b): n for a, b, n in module}) for module in entry
    )
    published = PUBLISHED_COUNTS.get(space)
    if published is not None and len(survivors) != published:
        raise ValueError(f"references.json lists {len(survivors)} survivors for {space}, "
                         f"the published count is {published}")
    return survivors


def outcome_of(report):
    """What a pass compares: the survivor set, or the abort message."""
    if report.incomplete:
        return report.failure or ""
    return frozenset(report.survivors)


def agrees(outcome, expected) -> bool:
    if isinstance(expected, str):
        return isinstance(outcome, str) and expected in outcome
    return outcome == expected


def setup(workload: Workload) -> tuple[float, Env]:
    """Import ``eqgrass`` afresh and build the references; timed."""
    for name in [m for m in sys.modules if m == "eqgrass" or m.startswith("eqgrass.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    env = Env(workload)
    return time.perf_counter() - t0, env


class Tally:
    """Spaces attempted and failed over every pass of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def record(self, label: str, space: Space, outcome, *expected) -> None:
        """One space attempted; it fails unless it agrees with every
        expected outcome."""
        self.attempted += 1
        wrong = [e for e in expected if not agrees(outcome, e)]
        if wrong:
            self.failed += 1
            self.mismatches.append(f"{label} {space}: got {describe(outcome)}, "
                                   f"expected {describe(wrong[0])}")


def describe(outcome) -> str:
    if isinstance(outcome, str):
        return f"abort {outcome!r}"
    return f"{len(outcome)} survivors"


def untraced_pass(env: Env, order: list[Space], tally: Tally, label: str) -> tuple[float, dict]:
    solve = env.search.solve
    outcomes = {}
    t0 = time.perf_counter()
    for space in order:
        report = solve(*space, budget=env.budget, jobs=1)
        outcomes[space] = outcome_of(report)
        tally.record(label, space, outcomes[space], env.expected[space])
    return time.perf_counter() - t0, outcomes


def repeat_passes(seconds: float, run_one: Callable[[int], float]) -> list[float]:
    """Run passes while the next one is expected to end within
    ``seconds``; always at least one.  Returns the pass times."""
    times: list[float] = []
    t0 = time.perf_counter()
    while not times or time.perf_counter() - t0 + statistics.median(times) <= seconds:
        times.append(run_one(len(times)))
    return times


def peak_rss_mib() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def memory_pass(env: Env, order: list[Space], tally: Tally) -> float:
    """Peak traced Python heap over one untimed pass, in MiB."""
    tracemalloc.start()
    try:
        untraced_pass(env, order, tally, "memory pass")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def traced_run(env: Env, seconds: float, shuffled, tally: Tally,
               out_path: Path) -> tuple[list[float], dict]:
    """Pairs of an untraced ``solve`` pass and a traced pass over the same
    order, for about ``seconds``.  Every space must agree with the reference
    and, in the traced pass, with the untraced pass before it.  Writes every
    traced pass's spans to out_path; returns the untraced pass times and the
    metrics of the median traced pass."""
    untraced: list[float] = []
    passes: list[tuple[tracing.Tracer, Counter]] = []

    def one_pair(i: int) -> float:
        order = shuffled()
        untraced_s, untraced_outcomes = untraced_pass(env, order, tally, f"pass {i}")
        tracer = tracing.Tracer()
        with tracing.instrumented(env, tracer):
            counts, outcomes = tracing.traced_pass(env, order, tracer, i)
        for space, outcome in outcomes.items():
            tally.record(f"traced pass {i}", space, outcome,
                         env.expected[space], untraced_outcomes[space])
        untraced.append(untraced_s)
        passes.append((tracer, counts))
        return untraced_s + tracer.busy["bench.pass"]

    repeat_passes(seconds, one_pair)
    walls = [tracer.busy["bench.pass"] for tracer, _ in passes]
    median_pass = sorted(range(len(walls)), key=walls.__getitem__)[len(walls) // 2]
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps({
        "passes": [
            {"wall_s": tracer.busy["bench.pass"], "counts": dict(counts),
             "calls": dict(tracer.calls), "busy_s": dict(tracer.busy),
             "self_s": dict(tracer.self_s), "spans": tracer.spans}
            for tracer, counts in passes
        ],
        "reported_pass": median_pass,
    }, indent=1))
    tracer, counts = passes[median_pass]
    return untraced, tracing.layer_metrics(tracer, counts, statistics.median(untraced))


def declared_metrics() -> dict[str, dict[str, str]]:
    """name -> unit for each metric kind declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def main(argv: list[str] | None = None, workloads: dict[str, Workload] = WORKLOADS) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    started = time.perf_counter()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "eqgrass" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'eqgrass'}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    units = declared_metrics()

    workload = workloads[args.workload]
    setups = [setup(workload) for _ in range(SETUP_REPEATS)]
    env = setups[-1][1]
    if not Path(env.eqgrass.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: eqgrass was imported from {env.eqgrass.__file__}", file=sys.stderr)
        return 2

    rng = random.Random(args.seed)

    def shuffled() -> list[Space]:
        order = list(workload.spaces)
        rng.shuffle(order)
        return order

    tally = Tally()
    if args.trace == 0:
        walls = repeat_passes(args.seconds,
                              lambda i: untraced_pass(env, shuffled(), tally, f"pass {i}")[0])
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(s for s, _ in setups),
            "peak_mib": peak_rss_mib(),
        }
        kind = "end_to_end"
    else:
        out_path = OUT_DIR / f"{args.workload}-seed{args.seed}.json"
        walls, values = traced_run(env, args.seconds, shuffled, tally, out_path)
        values["trace.heap_peak_mib"] = memory_pass(env, shuffled(), tally)
        kind = "per_layer"

    missing = set(units[kind]) - set(values)
    extra = set(values) - set(units[kind])
    if missing or extra:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing {sorted(missing)}, "
                           f"undeclared {sorted(extra)}")

    for line in tally.mismatches:
        print("MISMATCH", line)
    fail_frac = tally.failed / tally.attempted
    print(f"workload={args.workload} seed={args.seed} untraced passes={len(walls)} "
          f"wall_s median={statistics.median(walls):.4f} "
          f"min={min(walls):.4f} max={max(walls):.4f} "
          f"fail_frac={fail_frac:.4f} ({tally.failed}/{tally.attempted}) "
          f"run_s={time.perf_counter() - started:.1f}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[kind][name]}
                    for name in units[kind]},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
