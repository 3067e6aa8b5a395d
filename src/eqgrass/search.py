"""Candidate enumeration and the pruned intersection search.

Given the first page of one construction, the spectral sequence can only
converge to modules reachable by shift moves, and every other construction
of the same space must reach the true answer as well.  The solver:

  a. builds the deduplicated first pages over all sign words,
  b. enumerates everything the lowest-tension page can converge to,
  c. discards pages that relax to other pages (their constraints are
     implied), and
  d. strikes every candidate some remaining page cannot relax to.

Each rule is written once.  ``modalg.is_legal_shift`` is the move rule,
``modalg.possible_differentials`` lists the (src, tgt) moves it admits
for the candidate enumeration, and ``modalg.shift_result`` is the
result of a move.  ``reduce_pages`` is the page reduction of step c,
and ``FreeModule.can_relax_to`` is the one relaxation check behind
steps c and d.

Step b is the closure: it replays single shifts breadth-first,
recomputing the possible differentials at every intermediate module, so
a summand shifted down by one move may support the next.  This models
re-running the sequence after each cell attachment.  A state is a count
table over (row, e = a - b) cells packed into one int, a field per cell,
and a move, which swaps two values of e, changes four fields.  Every
move strictly decreases tension, so the closure is finite and always
runs to the end.  The time budget also covers building the cells.
``oracle.closure_oracle`` is its slow reference.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Iterable, Sequence

from .modalg import FreeModule, possible_differentials, shift_result
from .schubert import BudgetExceededError, check_parameters, unique_e1_pages

DEFAULT_MAX_MODULES = 1_000_000
DEFAULT_MAX_WORDS = 2_000

# The closure is the only candidate generation.  Reports record it as
# {"kind": "closure", "depth": null}, which keeps their bytes unchanged.
DEFAULT_STRATEGY = "closure"
_STRATEGY_JSON = {"kind": DEFAULT_STRATEGY, "depth": None}


@dataclass(frozen=True)
class Budget:
    """Caps that turn a runaway search into a clean abort.

    ``max_modules`` bounds the number of distinct modules a candidate
    enumeration may visit; ``max_words`` bounds the number of sign words
    a page enumeration may examine; ``max_seconds`` optionally bounds
    wall-clock time for a candidate enumeration.  Any cap may be None
    for unlimited.
    """

    max_modules: int | None = DEFAULT_MAX_MODULES
    max_words: int | None = DEFAULT_MAX_WORDS
    max_seconds: float | None = None


DEFAULT_BUDGET = Budget()


def candidate_outcomes(
    module: FreeModule,
    strategy: str = DEFAULT_STRATEGY,
    budget: Budget = DEFAULT_BUDGET,
) -> list[FreeModule]:
    """Every module the starting page could converge to, the page itself
    included.  Deduplicated and canonically sorted.

    ``strategy`` can only be ``DEFAULT_STRATEGY``; any other value raises
    ``ValueError``.
    """
    if strategy != DEFAULT_STRATEGY:
        raise ValueError(f"unknown strategy {strategy!r}")
    # A state is a count table over the cells, the bidegrees a generator
    # can reach (the start's, closed under the move rule), packed into an
    # int, one fixed-width field per cell, cell 0 most significant.  In
    # coordinates e = a - b a move swaps e1 in row a with a smaller e2 in a
    # higher row, so it is -1, -1, +1, +1 on four fields' units, and a
    # state tries only the moves between its live cells.  One cell can
    # gather up to len(module) generators, which sets the width.
    deadline = None
    if budget.max_seconds is not None:
        deadline = time.monotonic() + budget.max_seconds
    cells = set(module.gens)
    while True:
        _check_deadline(deadline, budget)
        moves = [(*move, *shift_result(*move)) for move in possible_differentials(cells)]
        reached = {cell for move in moves for cell in move[2:]}
        if reached <= cells:
            break
        cells |= reached
    cells = sorted(cells)
    typecode = next(t for t in "BHIQ" if len(module) < 1 << 8 * array(t).itemsize)
    width = 8 * array(typecode).itemsize
    mask = (1 << width) - 1
    shifts = list(range(width * (len(cells) - 1), -1, -width))
    units = [1 << shift for shift in shifts]
    index = {cell: i for i, cell in enumerate(cells)}
    partners: list[list[tuple[int, int, int, int]]] = [[] for _ in cells]
    for src, tgt, src_after, tgt_after in moves:
        j = index[tgt]
        partners[index[src]].append(
            (shifts[j], units[j], units[index[src_after]], units[index[tgt_after]])
        )
    movers = [(shifts[i], units[i], swaps) for i, swaps in enumerate(partners) if swaps]

    start = sum(units[index[gen]] for gen in module.gens)
    seen = {start}
    frontier = deque([start])
    max_modules = budget.max_modules
    if max_modules is not None and len(seen) > max_modules:
        raise BudgetExceededError(f"candidate enumeration exceeded {max_modules} modules")
    while frontier:
        _check_deadline(deadline, budget)
        state = frontier.popleft()
        for shift, unit, swaps in movers:
            if not state >> shift & mask:
                continue
            left = state - unit
            for shift_j, unit_j, unit_i_after, unit_j_after in swaps:
                if not state >> shift_j & mask:
                    continue
                child = left - unit_j + unit_i_after + unit_j_after
                if child in seen:
                    continue
                seen.add(child)
                if max_modules is not None and len(seen) > max_modules:
                    raise BudgetExceededError(
                        f"candidate enumeration exceeded {max_modules} modules"
                    )
                frontier.append(child)
    # A module with more generators in the first differing cell is the
    # smaller one, and its table the larger int, so descending states
    # give the canonical order; the sorted cells keep each decode sorted.
    nbytes = len(cells) * width // 8
    swap = width > 8 and sys.byteorder == "little"
    outcomes = []
    for state in sorted(seen, reverse=True):
        table = array(typecode, state.to_bytes(nbytes, "big"))
        if swap:
            table.byteswap()
        outcomes.append(FreeModule(chain.from_iterable(map(repeat, cells, table))))
    return outcomes


def _check_deadline(deadline: float | None, budget: Budget) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExceededError(
            f"candidate enumeration exceeded {budget.max_seconds} seconds"
        )


def reduce_pages(pages: Sequence[FreeModule]) -> list[FreeModule]:
    """Drop every page that can shift to another page in the list; the
    target's outcomes are a subset, so the dropped page adds nothing.

    ``pages`` must be distinct and sorted by tension ascending, as
    ``unique_e1_pages`` returns them.  Relaxing strictly lowers tension,
    so only earlier pages can be targets, and the first page is always
    kept.  Each page is checked against the kept pages only: relaxation
    is transitive, so a page that relaxes to a dropped page also relaxes
    to the kept page that one relaxes to, and the result is the same as
    checking every earlier page.
    """
    kept: list[FreeModule] = []
    for page in pages:
        if not any(page.can_relax_to(target) for target in kept):
            kept.append(page)
    return kept


def subspace_filter(
    candidates: Iterable[FreeModule],
    h_sub: FreeModule,
    e1_q: FreeModule,
) -> list[FreeModule]:
    """Keep candidates that are relaxations of (known subspace answer)
    direct-sum (quotient first page)."""
    lower_bound = h_sub + e1_q
    return [c for c in candidates if lower_bound.can_relax_to(c)]


@dataclass(frozen=True)
class SolveReport:
    """Full trace of one solver run, built once by ``solve``; byte-stable JSON."""

    k: int
    p: int
    q: int
    pages: list[FreeModule] = field(default_factory=list)
    candidates: list[FreeModule] = field(default_factory=list)
    filter_page_indices: list[int] = field(default_factory=list)
    filter_log: list[tuple[int, list[int]]] = field(default_factory=list)
    survivor_indices: list[int] = field(default_factory=list)
    failure: str | None = None

    @property
    def incomplete(self) -> bool:
        """True when a budget cut the run short; ``failure`` says which."""
        return self.failure is not None

    @property
    def survivors(self) -> list[FreeModule]:
        return [self.candidates[i] for i in self.survivor_indices]

    def to_json(self) -> dict:
        # "strategy", "tensions" and "chosen" restate constants, the pages
        # and the closure's start, page 0; they stay so that the bytes of
        # `solve --format json` do.
        return {
            "parameters": {"k": self.k, "p": self.p, "q": self.q},
            "strategy": dict(_STRATEGY_JSON),
            "pages": [m.to_json() for m in self.pages],
            "tensions": [m.tension() for m in self.pages],
            "chosen": 0,
            "candidates": [m.to_json() for m in self.candidates],
            "filter_page_indices": list(self.filter_page_indices),
            "filter_log": [
                {"page": page_idx, "removed": list(removed)}
                for page_idx, removed in self.filter_log
            ],
            "survivor_indices": list(self.survivor_indices),
            "incomplete": self.incomplete,
            "failure": self.failure,
        }

    def to_json_bytes(self) -> bytes:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":")).encode()


def solve(
    k: int,
    p: int,
    q: int,
    budget: Budget = DEFAULT_BUDGET,
    jobs: int = 1,
) -> SolveReport:
    """Run the pruned intersection search for Gr_k(R^{p,q}).

    Deterministic for fixed arguments.  The search runs in this process,
    and ``jobs`` may only be 1.  Budget exhaustion produces a partial
    report whose ``failure`` names the cap instead of an exception.
    """
    check_parameters(k, p, q)
    if jobs != 1:
        raise ValueError(f"solve runs in one process, got jobs={jobs}")
    pages: list[FreeModule] = []
    try:
        pages = unique_e1_pages(k, p, q, max_words=budget.max_words)
        candidates = candidate_outcomes(pages[0], budget=budget)
    except BudgetExceededError as exc:
        return SolveReport(k, p, q, pages, failure=str(exc))

    # Pages that can shift to any other page are redundant: the target
    # page filters at least as hard.  Page 0, the closure's start,
    # filters nothing (every candidate is reachable from it) so it is
    # never used.
    # Filters run from the highest-tension page down; the order changes
    # only how removals split across the log, never the survivor set.
    position = {page: i for i, page in enumerate(pages)}
    filter_indices = [position[page] for page in reduce_pages(pages)[:0:-1]]
    log: list[tuple[int, list[int]]] = []
    alive = list(range(len(candidates)))
    for page_idx in filter_indices:
        page = pages[page_idx]
        flags = [page.can_relax_to(candidates[i]) for i in alive]
        removed = [i for i, ok in zip(alive, flags) if not ok]
        if removed:
            log.append((page_idx, removed))
            alive = [i for i, ok in zip(alive, flags) if ok]
    return SolveReport(k, p, q, pages, candidates, filter_indices, log, alive)
