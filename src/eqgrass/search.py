"""Candidate enumeration and the pruned intersection search.

Given the first page of one construction, the spectral sequence can only
converge to modules reachable by shift moves, and every other construction
of the same space must reach the true answer as well.  The solver:

  a. builds the deduplicated first pages over all sign words,
  b. enumerates everything the lowest-tension page can converge to,
  c. discards pages that relax to other pages (their constraints are
     implied), and
  d. strikes every candidate whose shift story, carried from the start
     through the closure, falls short of some remaining page's need.

Each rule is written once.  ``modalg.is_legal_shift`` is the move rule,
``modalg.possible_differentials`` lists the (src, tgt) moves it admits,
``modalg.shift_result`` is the result of a move and ``reduce_pages`` is
step c.  Steps c and d test relaxation as one integer comparison, of
corner keys (``_corner_keys``) and of stories; ``FreeModule.can_relax_to``
checks both in the tests.  Step b, the closure, replays single shifts
breadth-first, recomputing the possible differentials at every
intermediate module, so a summand shifted down by one move may support
the next, as re-running the sequence after each cell attachment would.
Every move strictly lowers tension, so the closure is finite;
``oracle.closure_oracle`` is its slow reference.  The module cap is
checked on a count, made before the search, of page 0's down-set, which
holds the closure.  The time budget runs from the start of ``solve``.
"""

from __future__ import annotations

import json
import struct
import time
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import accumulate, chain, groupby, repeat
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .modalg import FreeModule, possible_differentials, shift_result
from .schubert import BudgetExceededError, check_parameters, unique_e1_pages

DEFAULT_MAX_MODULES = 1_000_000
DEFAULT_MAX_WORDS = 2_000

# The closure is the only candidate generation.  Reports record it as
# {"kind": "closure", "depth": null}, which keeps their bytes unchanged.
DEFAULT_STRATEGY = "closure"


@dataclass(frozen=True)
class Budget:
    """Caps that turn a runaway search into a clean abort.

    ``max_modules`` bounds the number of distinct modules a candidate
    enumeration may visit, checked on a count made before the search;
    ``max_words`` bounds the number of sign words a page enumeration may
    examine; ``max_seconds`` optionally bounds wall-clock time for a
    candidate enumeration or a ``solve``.  Any cap may be None for
    unlimited.
    """

    max_modules: int | None = DEFAULT_MAX_MODULES
    max_words: int | None = DEFAULT_MAX_WORDS
    max_seconds: float | None = None


DEFAULT_BUDGET = Budget()


def candidate_outcomes(module: FreeModule, strategy: str = DEFAULT_STRATEGY,
                       budget: Budget = DEFAULT_BUDGET) -> list[FreeModule]:
    """Every module the starting page could converge to, the page itself
    included, deduplicated and canonically sorted.  ``strategy`` can only
    be ``DEFAULT_STRATEGY``; any other value raises ``ValueError``."""
    if strategy != DEFAULT_STRATEGY:
        raise ValueError(f"unknown strategy {strategy!r}")
    cells, states, _, _ = _closure(module, budget, time.monotonic())
    return [_module(cells, table) for table in _tables(cells, states, len(module))]


def _closure(module: FreeModule, budget: Budget, began: float) -> tuple[list, list, list, list]:
    """The sorted cells of ``module``'s closure, its states in descending
    order, the corners its moves change and each state's story on them;
    ``budget.max_seconds`` counts from ``began``."""
    # A state is a count table over the cells, the bidegrees a generator
    # can reach (the start's, closed under the move rule), packed into an
    # int, one field per cell, cell 0 most significant; a cell can hold all
    # len(module) generators, which sets the width.  In coordinates
    # e = a - b a move swaps e1 in row a with a smaller e2 in a higher row
    # c, one step of -1, -1, +1, +1 on four fields, and a state tries only
    # the moves between its live cells.  Its story is its corner counts
    # (of generators with a <= i and e <= t) less the start's.  The move
    # adds one on the rectangle a <= i < c, e2 <= t < e1, so a story has a
    # field per corner of C, the union of the moves' rectangles, as wide
    # as a corner key's, and a move adds one rise to it.  The count made
    # first keeps the walk under the module cap.
    if budget.max_modules is not None:
        _check_cap(_count_down_set(module, budget, began), budget)
    cells = set(module.gens)
    while True:
        _check_clock(began, budget, "candidate enumeration")
        moves = [(*move, *shift_result(*move)) for move in possible_differentials(cells)]
        reached = {cell for move in moves for cell in move[2:]}
        if reached <= cells:
            break
        cells |= reached
    cells = sorted(cells)
    width = 8 * struct.calcsize(">" + _typecode(len(module)))
    mask = (1 << width) - 1
    shifts = list(range(width * (len(cells) - 1), -1, -width))
    units = [1 << shift for shift in shifts]
    index = {cell: i for i, cell in enumerate(cells)}
    rows, cols = (sorted(set(margin)) for margin in _margins(module))
    rects = [[(i, t) for i in rows if src[0] <= i < tgt[0] for t in cols
              if tgt[0] - tgt[1] <= t < src[0] - src[1]] for src, tgt, _, _ in moves]
    corners = sorted(set(chain.from_iterable(rects)))
    bit = {corner: 1 << (len(module).bit_length() + 1) * j for j, corner in enumerate(corners)}
    partners: list[list[tuple[int, int, int]]] = [[] for _ in cells]
    for (src, tgt, src_after, tgt_after), rect in zip(moves, rects):
        i, j = index[src], index[tgt]
        step = units[index[src_after]] + units[index[tgt_after]] - units[i] - units[j]
        partners[i].append((shifts[j], step, sum(map(bit.get, rect))))
    movers = [(shifts[i], swaps) for i, swaps in enumerate(partners) if swaps]

    start = sum(units[index[gen]] for gen in module.gens)
    seen = {start: 0}  # state: story
    frontier = deque([start])
    while frontier:
        _check_clock(began, budget, "candidate enumeration")
        state = frontier.popleft()
        story = seen[state]
        for shift, swaps in movers:
            if not state >> shift & mask:
                continue
            for shift_j, step, rise in swaps:
                if not state >> shift_j & mask:
                    continue
                child = state + step
                if child not in seen:
                    seen[child] = story + rise
                    frontier.append(child)
    # A module with more generators in the first differing cell is the
    # smaller one, and its table the larger int, so descending states
    # give the canonical order.
    states = sorted(seen, reverse=True)
    return cells, states, corners, list(map(seen.get, states))


def _count_down_set(page0: FreeModule, budget: Budget, began: float) -> int:
    """The size of page0's down-set, which holds its closure: the tables over
    (a, e = a - b) with page0's margins, b >= 0 and at least its count in each
    corner {a <= i, e <= t}.  Raises once the count passes the module cap."""
    # Rows go in degree order, each one e at a time.  A state is the column
    # totals so far, packed ``width`` bits each, the row's corner sum so far
    # and what the row has left; equal states merge.  Every state extends
    # to a table, so the running count is a lower bound: the lower limit
    # leaves the row room, filling its lowest open columns keeps its
    # corners, and later rows keep theirs when given the remaining e in
    # ascending order.  A finished row keeps its later corners too.
    es = _margins(page0)[1]
    cols = sorted(set(es))
    sums = [es.count(e) for e in cols]
    width = len(es).bit_length()
    mask = (1 << width) - 1
    full = sum(n << width * k for k, n in enumerate(sums))
    floor = [0] * len(cols)  # page0's column totals over the rows so far
    states = {(0, 0, 0): 1}
    for a, row in groupby(page0.gens, itemgetter(0)):
        row = [cols.index(a - b) for _, b in row]
        for k in row:
            floor[k] += 1
        need = list(accumulate(floor))  # page0's corners in this row
        top = bisect_right(cols, a)
        # Columns full in every state pass their corners: start after them.
        start = min(((full - s) & (s - full)).bit_length() - 1 for s, _, _ in states) // width
        free = sum(sums[start:top])  # places in the columns after k, below top
        states = {(s, sum(sums[:start]), len(row)): n for (s, _, _), n in states.items()}
        for k in range(start, top):
            _check_clock(began, budget, "candidate enumeration")
            free -= sums[k]
            after: dict[tuple, int] = {}
            for (state, run, left), n in states.items():
                have = state >> width * k & mask
                corner = run + have
                # all placed generators lie left of top, so the row has
                # free - (need[-1] - left - corner) places after k
                lo = max(0, need[-1] - free - corner, need[k] - corner)
                for x in range(lo, min(left, sums[k] - have) + 1):
                    key = (state + (x << width * k), corner + x, left - x)
                    after[key] = after.get(key, 0) + n
            states = after
            _check_cap(sum(after.values()), budget)
            if not any(left for _, _, left in states):
                break
    return sum(states.values())


def _typecode(size: int) -> str:
    return next(t for t in "BHIQ" if size < 1 << 8 * struct.calcsize(">" + t))


def _tables(cells: list, states: Iterable[int], size: int) -> Iterator[tuple[int, ...]]:
    """The count tables of closure states whose start has ``size`` generators."""
    fields = struct.Struct(f">{len(cells)}{_typecode(size)}")
    for state in states:
        yield fields.unpack(state.to_bytes(fields.size, "big"))


def _module(cells: list, table: Sequence[int]) -> FreeModule:
    return FreeModule(chain.from_iterable(map(repeat, cells, table)))


def _check_clock(began: float, budget: Budget, phase: str) -> None:
    if budget.max_seconds is not None and time.monotonic() - began > budget.max_seconds:
        raise BudgetExceededError(f"{phase} exceeded {budget.max_seconds} seconds")


def _check_cap(modules: int, budget: Budget) -> None:
    if budget.max_modules is not None and modules > budget.max_modules:
        raise BudgetExceededError(f"candidate enumeration exceeded {budget.max_modules} modules")


def _margins(module: FreeModule) -> tuple[list[int], list[int]]:
    """Degrees and sorted values of e = a - b; shifts keep both."""
    return [a for a, _ in module.gens], sorted(a - b for a, b in module.gens)


def _corner_keys(page0: FreeModule) -> tuple[int, Callable]:
    """``(guard, key)``: ``key(gens)`` packs the counts of generators with
    a <= i and e <= t into a field per corner (i, t) of page0, with a guard
    bit on top (the last i and t, fixed by the margins, are left out), so
    a module's key is the sum of its generators' keys, their units.  For P
    and B with page0's margins, ``P.can_relax_to(B)`` exactly when
    ``((key_B | guard) - key_P) & guard == guard``: no field borrows."""
    degrees, es = _margins(page0)
    rows, cols = sorted(set(degrees)), sorted(set(es))
    width = len(page0).bit_length() + 1
    last = len(cols) - 1
    row_bytes = (width * last + 7) // 8  # each row of corners starts on a byte
    row_of = {a: i for i, a in enumerate(rows)}
    # col_part[e] has a one in each field t >= e of a row
    col_part = {e: sum(1 << width * t for t in range(i, last)) for i, e in enumerate(cols)}

    def key(gens: Iterable[tuple[int, int]]) -> int:
        counts = [0] * len(rows)
        for a, b in gens:
            counts[row_of[a]] += col_part[a - b]
        runs = (n.to_bytes(row_bytes, "little") for n in accumulate(counts[:-1]))
        return int.from_bytes(b"".join(runs), "little")

    # The unit of the first row's first e counts in every corner.
    return key([(rows[0], rows[0] - cols[0])]) << width - 1 if rows else 0, key


def _kept_pages(pages: Sequence[FreeModule], budget: Budget, began: float) -> tuple:
    """``_corner_keys(pages[0])``'s key and the (index, key) of each kept
    page; every page must have page 0's margins, as a census's pages do."""
    guard, key = _corner_keys(pages[0])
    kept = []
    for i, page in enumerate(pages):
        _check_clock(began, budget, "page reduction")
        page_key = key(page.gens)
        if not any(((t | guard) - page_key) & guard == guard for _, t in kept):
            kept.append((i, page_key))
    return key, kept


def reduce_pages(pages: Sequence[FreeModule]) -> list[FreeModule]:
    """Drop every page that can shift to another page in the list; the
    target's outcomes are a subset, so the dropped page adds nothing.

    ``pages`` must be distinct and sorted by tension ascending, as
    ``unique_e1_pages`` returns them.  Relaxing strictly lowers tension,
    so only earlier pages can be targets, and the first page is always
    kept.  Each page is checked against the kept pages only: relaxation
    is transitive, so the result is the same as checking every earlier
    page.  A page with other margins than the first raises ``ValueError``.
    """
    margins = _margins(pages[0]) if pages else None
    if any(_margins(page) != margins for page in pages):
        raise ValueError("every page must have the first page's degrees and values of e")
    return [pages[i] for i, _ in _kept_pages(pages, DEFAULT_BUDGET, 0.0)[1]] if pages else []


def subspace_filter(candidates: Iterable[FreeModule], h_sub: FreeModule,
                    e1_q: FreeModule) -> list[FreeModule]:
    """Keep candidates that are relaxations of (known subspace answer)
    direct-sum (quotient first page)."""
    lower_bound = h_sub + e1_q
    return [c for c in candidates if lower_bound.can_relax_to(c)]


@dataclass(frozen=True)
class SolveReport:
    """Full trace of one solver run, built once by ``solve``; byte-stable JSON.
    The candidates, ``pages[0]``'s closure, are decoded from ``states`` once."""

    k: int
    p: int
    q: int
    pages: list[FreeModule] = field(default_factory=list)
    cells: list[tuple[int, int]] = field(default_factory=list)
    states: list[int] = field(default_factory=list)
    filter_page_indices: list[int] = field(default_factory=list)
    filter_log: list[tuple[int, list[int]]] = field(default_factory=list)
    survivor_indices: list[int] = field(default_factory=list)
    failure: str | None = None

    @property
    def incomplete(self) -> bool:
        """True when a budget cut the run short; ``failure`` says which."""
        return self.failure is not None

    def _unpack(self, states: Iterable[int]) -> Iterator[tuple[int, ...]]:
        return _tables(self.cells, states, len(self.pages[0]) if self.pages else 0)

    @cached_property
    def candidates(self) -> list[FreeModule]:
        return [_module(self.cells, table) for table in self._unpack(self.states)]

    @property
    def survivors(self) -> list[FreeModule]:
        states = [self.states[i] for i in self.survivor_indices]
        return [_module(self.cells, table) for table in self._unpack(states)]

    def to_json(self) -> dict:
        # "strategy", "tensions" and "chosen" restate constants, the pages
        # and the closure's start, page 0; they stay so that the bytes of
        # `solve --format json` do.  Over the sorted cells a candidate's
        # table gives FreeModule.to_json's list.
        return {
            "parameters": {"k": self.k, "p": self.p, "q": self.q},
            "strategy": {"kind": DEFAULT_STRATEGY, "depth": None},
            "pages": [m.to_json() for m in self.pages],
            "tensions": [m.tension() for m in self.pages],
            "chosen": 0,
            "candidates": [{"generators": [[a, b, n] for (a, b), n in zip(self.cells, t) if n]}
                           for t in self._unpack(self.states)],
            "filter_page_indices": list(self.filter_page_indices),
            "filter_log": [{"page": i, "removed": list(removed)} for i, removed in self.filter_log],
            "survivor_indices": list(self.survivor_indices),
            "incomplete": self.incomplete,
            "failure": self.failure,
        }

    def to_json_bytes(self) -> bytes:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":")).encode()


def solve(k: int, p: int, q: int, budget: Budget = DEFAULT_BUDGET, jobs: int = 1) -> SolveReport:
    """Run the pruned intersection search for Gr_k(R^{p,q}).

    Deterministic for fixed arguments.  The search runs in this process,
    and ``jobs`` may only be 1.  Budget exhaustion produces a partial
    report whose ``failure`` names the cap instead of an exception;
    ``max_seconds`` runs from the call and covers the sign-word census,
    the count, the closure, the page reduction and the filter.
    """
    check_parameters(k, p, q)
    if jobs != 1:
        raise ValueError(f"solve runs in one process, got jobs={jobs}")
    began = time.monotonic()
    pages: list[FreeModule] = []
    try:
        tick = partial(_check_clock, began, budget, "sign-word census")
        pages = unique_e1_pages(k, p, q, budget.max_words, tick)
        cells, states, corners, stories = _closure(pages[0], budget, began)
        # Pages that can shift to any other page are redundant: the
        # target page filters at least as hard.  Page 0, the closure's
        # start, filters nothing (every candidate is reachable from it)
        # so it is never used.  Filters run from the highest-tension page
        # down; the order changes only how removals split across the
        # log, never the survivor set.
        key, kept = _kept_pages(pages, budget, began)
        filters = kept[:0:-1]
        # Candidate B passes page P when B_x >= P_x at every corner x, so
        # when its story covers P's need, max(0, P_x - page0_x), on C.  Off
        # C the need is 0: if P_x > page0_x at x = (i, t), then by P's
        # degrees and values of e page 0 has generators at (a <= i, e1 > t)
        # and (c > i, e2 <= t), a move of page 0 that changes x.  In a key,
        # x's field starts at the lowest bit of key([(i, i - t)]).
        width = len(pages[0]).bit_length() + 1
        mask = (1 << width) - 1
        offsets = [(u & -u).bit_length() - 1 for u in (key([(i, i - t)]) for i, t in corners)]
        floor = [kept[0][1] >> offset & mask for offset in offsets]
        needs = [(i, sum(max(0, (page_key >> offset & mask) - f) << width * j
                         for j, (offset, f) in enumerate(zip(offsets, floor))))
                 for i, page_key in filters]
        top = sum(1 << width * j + width - 1 for j in range(len(corners)))
        removed: dict[int, list[int]] = {i: [] for i, _ in filters}
        alive = []
        for c, story in enumerate(stories):
            _check_clock(began, budget, "candidate filter")
            story |= top
            for i, need in needs:  # filed under the first page it fails
                if (story - need) & top != top:
                    removed[i].append(c)
                    break
            else:
                alive.append(c)
    except BudgetExceededError as exc:
        return SolveReport(k, p, q, pages, failure=str(exc))
    log = [(i, removed[i]) for i, _ in filters if removed[i]]
    return SolveReport(k, p, q, pages, cells, states, [i for i, _ in filters], log, alive)
