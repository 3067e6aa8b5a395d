"""The traced run: the phases of ``solve`` driven through their public
calls, with a span at each layer boundary.

The pipeline is the one ``eqgrass.search.solve`` runs with the default
strategy: ``unique_e1_pages`` -> ``candidate_outcomes`` -> ``reduce_pages``
-> one ``FreeModule.can_relax_to`` per filter page and live candidate.
Spans (id, trace id, name, start, end, parent) are recorded around those
calls.  The hot calls below them, ``FreeModule.can_relax_to``,
``FreeModule.shift_story`` and ``BiPoly.divide_by_k11``, are wrapped for
the traced passes only and keep call counts and busy time instead of one
span per call.  A name's self time is its busy time minus the time of the
spans and wrapped calls nested in it; a layer's self time is the sum over
the names it owns (the prefix before the first dot).  ``bench.*`` spans
belong to the harness, so their self time is the part of the traced pass
that no layer covers.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("schubert", "search", "modalg", "bipoly")


class Tracer:
    """Spans and per-name counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.calls: Counter[str] = Counter()
        self.hits: Counter[str] = Counter()
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [name, start, child seconds, span id]
        self._next_id = 0

    def _enter(self, name: str, span_id: int | None = None) -> list:
        frame = [name, time.perf_counter(), 0.0, span_id]
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list) -> float:
        end = time.perf_counter()
        self._stack.pop()
        name, start, child, _ = frame
        elapsed = end - start
        self.calls[name] += 1
        self.busy[name] += elapsed
        self.self_s[name] += elapsed - child
        if self._stack:
            self._stack[-1][2] += elapsed
        return end

    @contextmanager
    def span(self, name: str, trace_id: str):
        parent = next((f[3] for f in reversed(self._stack) if f[3] is not None), None)
        span_id = self._next_id
        self._next_id += 1
        frame = self._enter(name, span_id)
        try:
            yield
        finally:
            end = self._leave(frame)
            self.spans.append({"id": span_id, "trace": trace_id, "name": name,
                               "start": frame[1], "end": end, "parent": parent})

    def wrap(self, name: str, fn, hit=None):
        """fn with its calls counted and timed under name; hit(result)
        true counts the call in ``hits``."""

        def wrapper(*args):
            frame = self._enter(name)
            try:
                result = fn(*args)
            finally:
                self._leave(frame)
            if hit is not None and hit(result):
                self.hits[name] += 1
            return result

        return wrapper


@contextmanager
def instrumented(env, tracer: Tracer):
    """Wrap the hot modalg and bipoly calls for the duration of a pass."""
    patches = [
        (env.FreeModule, "can_relax_to", "modalg.can_relax_to", None),
        (env.FreeModule, "shift_story", "modalg.shift_story", None),
        (env.BiPoly, "divide_by_k11", "bipoly.divide_by_k11", lambda r: r is not None),
    ]
    originals = [(cls, attr, cls.__dict__[attr]) for cls, attr, _, _ in patches]
    try:
        for cls, attr, name, hit in patches:
            setattr(cls, attr, tracer.wrap(name, cls.__dict__[attr], hit))
        yield
    finally:
        for cls, attr, original in originals:
            setattr(cls, attr, original)


def traced_space(env, tracer: Tracer, space, trace_id: str, counts: Counter):
    """One space through the solve pipeline; returns the survivor set or
    the abort message, as the untraced pass does."""
    k, p, q = space
    search, budget = env.search, env.budget
    with tracer.span("schubert.unique_e1_pages", trace_id):
        try:
            pages = env.schubert.unique_e1_pages(k, p, q, max_words=budget.max_words)
        except search.BudgetExceededError as exc:
            return str(exc)
    counts["words"] += math.comb(p, q)
    counts["pages"] += len(pages)

    with tracer.span("search.candidate_outcomes", trace_id):
        try:
            candidates = search.candidate_outcomes(pages[0], search.DEFAULT_STRATEGY, budget)
        except search.BudgetExceededError as exc:
            # The closure raises as its visited set first exceeds the cap.
            counts["states"] += budget.max_modules + 1
            return str(exc)
    counts["states"] += len(candidates)

    stories_before = tracer.calls["modalg.shift_story"]
    with tracer.span("search.reduce_pages", trace_id):
        kept = search.reduce_pages(pages)
    counts["reduce_checks"] += tracer.calls["modalg.shift_story"] - stories_before
    if kept[0] != pages[0]:
        raise RuntimeError(f"{space}: reduce_pages dropped the lowest-tension page")

    # solve filters with every kept page but the chosen one (which reaches
    # every candidate), from the highest tension down.
    filter_pages = kept[:0:-1]
    counts["filter_pages"] += len(filter_pages)
    alive = candidates
    with tracer.span("search.filter", trace_id):
        for page in filter_pages:
            with tracer.span("search.filter_page", trace_id):
                keep = [page.can_relax_to(c) for c in alive]
            counts["filter_checks"] += len(alive)
            counts["eliminated"] += keep.count(False)
            alive = [c for c, ok in zip(alive, keep) if ok]
    counts["survivors"] += len(alive)
    return frozenset(alive)


def traced_pass(env, order, tracer: Tracer, pass_no: int) -> tuple[Counter, dict]:
    counts: Counter = Counter()
    outcomes = {}
    with tracer.span("bench.pass", f"pass{pass_no}"):
        for space in order:
            trace_id = "pass%d:%d,%d,%d" % (pass_no, *space)
            with tracer.span("bench.space", trace_id):
                outcomes[space] = traced_space(env, tracer, space, trace_id, counts)
    return counts, outcomes


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, counts: Counter, untraced_wall: float) -> dict[str, float]:
    busy, calls = tracer.busy, tracer.calls
    wall = busy["bench.pass"]
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, seconds in tracer.self_s.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += seconds
    census_s = busy["schubert.unique_e1_pages"]
    closure_s = busy["search.candidate_outcomes"]
    filter_s = busy["search.filter"]
    relax_checks = counts["reduce_checks"] + counts["filter_checks"]
    divides = calls["bipoly.divide_by_k11"]
    covered = sum(layer_self.values())
    metrics = {
        "schubert.census_s": census_s,
        "schubert.words": counts["words"],
        "schubert.pages": counts["pages"],
        "schubert.words_per_s": _ratio(counts["words"], census_s),
        "schubert.distinct_frac": _ratio(counts["pages"], counts["words"]),
        "search.closure_s": closure_s,
        "search.states": counts["states"],
        "search.states_per_s": _ratio(counts["states"], closure_s),
        "search.reduce_s": busy["search.reduce_pages"],
        "search.reduce_checks": counts["reduce_checks"],
        "search.filter_pages": counts["filter_pages"],
        "search.filter_s": filter_s,
        "search.filter_checks": counts["filter_checks"],
        "search.filter_checks_per_s": _ratio(counts["filter_checks"], filter_s),
        "search.eliminated_frac": _ratio(counts["eliminated"], counts["filter_checks"]),
        "search.survivors": counts["survivors"],
        "modalg.story_calls": calls["modalg.shift_story"],
        "modalg.story_s": busy["modalg.shift_story"],
        # bipoly is only called from modalg, so this is modalg's busy time.
        "modalg.relax_checks_per_s": _ratio(relax_checks, layer_self["modalg"] + layer_self["bipoly"]),
        "bipoly.divide_calls": divides,
        "bipoly.divide_s": busy["bipoly.divide_by_k11"],
        "bipoly.divisible_frac": _ratio(tracer.hits["bipoly.divide_by_k11"], divides),
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": wall - untraced_wall,
        "trace.uncovered_s": wall - covered,
        "trace.uncovered_frac": _ratio(wall - covered, wall),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    return metrics
