"""Candidate enumeration and the pruned intersection search.

Given the first page of one construction, the spectral sequence can only
converge to modules reachable by shift moves, and every other construction
of the same space must reach the true answer as well.  The solver:

  a. builds the deduplicated first pages over all sign words, each kept
     as its cells' weights and decoded into a module only for page 0,
  b. walks the closure of page 0, the lowest-tension page, by single
     shifts, so a summand shifted down by one move may support the next,
     one part per component of the moves, and leaves the parts unjoined,
  c. takes the need, the fieldwise maximum of every page's counts on the
     corners C that the closure's moves change, and
  d. keeps each part's states whose shift story covers the need on that
     part's corners, and joins only those: the survivors.

The candidates, the parts' whole product, and the report's log, which
only the JSON reads, are built on first access; the log drops the pages
that relax to others (``reduce_pages``) and files each struck candidate
under the first kept page it fails.  Every move strictly lowers tension,
so the closure is finite; ``oracle.closure_oracle`` is its slow
reference.  The module cap is checked on a count of page 0's down-set,
which holds the closure, before the walk.  The time budget runs from the
start of ``solve`` and covers the join and the log too.
"""

from __future__ import annotations

import json
import math
import struct
import time
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field, fields
from functools import cache, cached_property, partial
from itertools import accumulate, chain, groupby, product, repeat, starmap
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .modalg import FreeModule, possible_differentials, shift_result
from .schubert import BudgetExceededError, _census, _Made, _typecode, check_parameters

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
    unlimited; a negative or NaN cap raises ``ValueError``.
    """

    max_modules: int | None = DEFAULT_MAX_MODULES
    max_words: int | None = DEFAULT_MAX_WORDS
    max_seconds: float | None = None

    def __post_init__(self):
        for cap in fields(self):
            value = getattr(self, cap.name)
            if value is not None and not value >= 0:
                raise ValueError(f"{cap.name} must be None or nonnegative, got {value!r}")


DEFAULT_BUDGET = Budget()


def candidate_outcomes(module: FreeModule, strategy: str = DEFAULT_STRATEGY,
                       budget: Budget = DEFAULT_BUDGET) -> list[FreeModule]:
    """Every module the starting page could converge to, the page itself
    included, deduplicated and canonically sorted.  ``strategy`` can only
    be ``DEFAULT_STRATEGY``; any other value raises ``ValueError``."""
    if strategy != DEFAULT_STRATEGY:
        raise ValueError(f"unknown strategy {strategy!r}")
    began = time.monotonic()
    cells, start, parts, _, _ = _closure(module, budget, began)
    states = _join(start, parts, budget, began)[0]
    return [_module(cells, table) for table in _tables(cells, states, len(module))]


def _closure(module: FreeModule, budget: Budget, began: float) -> tuple[list, tuple, list, list, tuple]:
    """``(cells, start, parts, tops, (guard, count))``: the sorted cells of
    ``module``'s closure and its factors.  ``count(gens)`` packs the number
    of ``gens`` in each corner of C, the corners {a <= i, e <= t} that the
    moves change, a field each below a guard bit.  ``start`` is the packed
    shares of the components without moves and ``count(module.gens)``; a
    part maps a moving component's states to their rises, and ``tops[j]``
    holds the guard bits of the corners that part j's moves change."""
    # The count comes first, so no cell or state is built past the module
    # cap.  The cells are closed, so ``moves`` holds every move any state
    # makes; a move takes one generator from each of two cells and adds one
    # to each of two, all four in one component.  A component's walk thus
    # reads and writes only its own cells' counts and keeps their total, so
    # the closure is exactly the product of the components' closures, and
    # as rises add along a path a story is the start's count plus its
    # parts' rises.  A move from (a, e1) to (c, e2), e = a - b, leaves
    # (a, e2) and (c, e1), so its rise, those two cells' units less its
    # ends', is one on each corner with a <= i < c and e2 <= t < e1.
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
    shift = dict(zip(cells, range(width * (len(cells) - 1), -1, -width)))
    rows, cols = (sorted(set(margin)) for margin in _margins(module))
    on_c = {(i, t) for (a, b), (c, d), _, _ in moves for i in rows if a <= i < c
            for t in cols if c - d <= t < a - b}
    bits = len(module).bit_length() + 1
    bit = {x: 1 << bits * j for j, x in enumerate(sorted(on_c))}

    @cache
    def unit(a: int, b: int) -> int:  # a generator's count in each corner of C
        return sum(u for (i, t), u in bit.items() if a <= i and a - b <= t)

    root = {i: i for i in shift.values()}  # a union-find over the cells, by shift

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    for src, *ends in moves:
        r = find(shift[src])
        for cell in ends:
            root[find(shift[cell])] = r
    walks, tops = {}, {}  # by component root: moves by source shift, the OR of their rises
    for src, tgt, x, y in moves:
        i, j, r = shift[src], shift[tgt], find(shift[src])
        step = (1 << shift[x]) + (1 << shift[y]) - (1 << i) - (1 << j)
        rise = unit(*x) + unit(*y) - unit(*src) - unit(*tgt)
        walks.setdefault(r, {}).setdefault(i, []).append((j, step, rise))
        tops[r] = tops.get(r, 0) | rise
    shares = dict.fromkeys(root, 0)  # of the start, by component root
    for gen in module.gens:
        shares[find(shift[gen])] += 1 << shift[gen]
    parts = []
    for r, moving in walks.items():
        seen = {shares.pop(r): 0}  # state: story
        frontier = deque(seen)
        while frontier:
            _check_clock(began, budget, "candidate enumeration")
            state = frontier.popleft()
            story = seen[state]
            for i, swaps in moving.items():
                if not state >> i & mask:
                    continue
                for j, step, rise in swaps:
                    if not state >> j & mask:
                        continue
                    child = state + step
                    if child not in seen:
                        seen[child] = story + rise
                        frontier.append(child)
        parts.append(seen)
    _check_clock(began, budget, "candidate enumeration")
    start = (sum(shares.values()), sum(starmap(unit, module.gens)))
    return (cells, start, parts, [tops[r] << bits - 1 for r in walks],
            (sum(bit.values()) << bits - 1, lambda gens: sum(starmap(unit, gens))))


def _join(start: tuple[int, int], parts: Sequence[dict], budget: Budget,
          began: float) -> tuple[list[int], list[int]]:
    """``start`` times the ``parts``: the states in descending order, the
    canonical one (more generators in the first differing cell make the
    smaller module and the larger int), and their stories.  The largest
    part is joined last, so few states are held twice, and the clock is
    read before each product that multiplies more than one state."""
    seen = dict([start])
    for part in sorted(parts, key=len):
        if len(seen) > 1:
            _check_clock(began, budget, "candidate enumeration")
        seen = {s + t: u + v for s, u in seen.items() for t, v in part.items()}
    states = sorted(seen, reverse=True)
    return states, [*map(seen.get, states)]


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


def _kept_pages(pages: Sequence[FreeModule], budget: Budget, began: float) -> list[int]:
    """The index of each kept page of ``pages``, page 0 first; every page
    must have page 0's margins, as a census's pages do."""
    guard, key = _corner_keys(pages[0])
    kept = {}  # index: key
    for i, page in enumerate(pages):
        _check_clock(began, budget, "page reduction")
        page_key = key(page.gens)
        if not any(((t | guard) - page_key) & guard == guard for t in kept.values()):
            kept[i] = page_key
    return list(kept)


def reduce_pages(pages: Sequence[FreeModule]) -> list[FreeModule]:
    """Drop every page that can shift to another page in the list; the
    target's outcomes are a subset, so the dropped page adds nothing.

    ``pages`` must be distinct and sorted by tension ascending, as
    ``unique_e1_pages`` returns them, so only earlier pages can be targets
    and the first page is kept; as relaxation is transitive, each page is
    checked against the kept pages only.  A page with other margins than
    the first, or with lower tension than the page before, raises
    ``ValueError``."""
    margins = _margins(pages[0]) if pages else None
    if any(_margins(page) != margins for page in pages):
        raise ValueError("every page must have the first page's degrees and values of e")
    if any(a.tension() > b.tension() for a, b in zip(pages, pages[1:])):
        raise ValueError("pages must be sorted by tension ascending")
    return [pages[i] for i in _kept_pages(pages, DEFAULT_BUDGET, 0.0)] if pages else []


def subspace_filter(candidates: Iterable[FreeModule], h_sub: FreeModule,
                    e1_q: FreeModule) -> list[FreeModule]:
    """Keep candidates that are relaxations of (known subspace answer)
    direct-sum (quotient first page)."""
    lower_bound = h_sub + e1_q
    return [c for c in candidates if lower_bound.can_relax_to(c)]


@dataclass(frozen=True)
class SolveReport:
    """Full trace of one solver run, built once by ``solve``; byte-stable JSON.
    ``census`` is ``schubert._census``'s ``(gen, values, pages)``, or None.
    ``states``, the join of the closure's parts, ``survivor_indices``, the
    positions of ``survivor_states`` in it, ``candidates`` and the log are
    each built once on first access, under the run's deadline, so reading
    them or ``to_json`` can raise ``BudgetExceededError``."""

    k: int
    p: int
    q: int
    # The pages follow from (k, p, q), and the decoder is new each run.
    census: tuple[dict, Callable, list[bytes]] | None = field(default=None, compare=False)
    cells: list[tuple[int, int]] = field(default_factory=list)
    survivor_states: list[int] = field(default_factory=list)
    failure: str | None = None
    # The closure's start, parts, guard and count on C, the budget and the start time.
    closure: tuple | None = field(default=None, compare=False)

    @property
    def incomplete(self) -> bool:
        """True when a budget cut the run short; ``failure`` says which."""
        return self.failure is not None

    @cached_property
    def pages(self) -> list[FreeModule]:
        gen, values, pages = self.census or ({}, None, [])
        return [FreeModule(map(gen.__getitem__, values(page))) for page in pages]

    @cached_property
    def _log(self) -> tuple[list[int], list[tuple[int, list[int]]]]:
        # A page that can shift to another filters no harder than it, and
        # page 0, the closure's start, filters nothing.  Filters run from the
        # highest tension down, which orders the log, not the survivors.
        if self.closure is None:
            return [], []
        _, _, top, count, budget, began = self.closure
        filters, stories = _kept_pages(self.pages, budget, began)[:0:-1], self._joined[1]
        alive, log = range(len(stories)), []
        for i in filters:  # each candidate is filed under the first page it fails
            _check_clock(began, budget, "candidate filter")
            need = count(self.pages[i].gens)
            if fails := {c for c in alive if ((stories[c] | top) - need) & top != top}:
                log.append((i, sorted(fails)))
                alive = [c for c in alive if c not in fails]
        return filters, log

    # The kept pages but page 0, highest tension first, and each one that
    # removes candidates, with those it removes.
    filter_page_indices = property(lambda self: self._log[0])
    filter_log = property(lambda self: self._log[1])

    @cached_property
    def _joined(self) -> tuple[list[int], list[int]]:  # the states and their stories
        if self.closure is None:
            return [], []
        start, parts, _, _, budget, began = self.closure
        return _join(start, parts, budget, began)

    states = property(lambda self: self._joined[0])

    @cached_property
    def survivor_indices(self) -> list[int]:
        alive = set(self.survivor_states)
        return [i for i, state in enumerate(self.states) if state in alive]

    def _unpack(self, states: Iterable[int]) -> Iterator[tuple[int, ...]]:
        # Every page has one generator per cell.
        return _tables(self.cells, states, math.comb(self.p, self.k))

    @cached_property
    def candidates(self) -> list[FreeModule]:
        return [_module(self.cells, table) for table in self._unpack(self.states)]

    @property
    def survivors(self) -> list[FreeModule]:
        return [_module(self.cells, table) for table in self._unpack(self.survivor_states)]

    def to_json(self) -> dict:
        # "strategy", "tensions" and "chosen" restate constants, the pages and
        # page 0, and stay so that the bytes of `solve --format json` do.  Over
        # the sorted cells a candidate's table gives FreeModule.to_json's list.
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
    the count, the closure and the filter, and then the report's join and
    log, which run on first access.
    """
    check_parameters(k, p, q)
    if jobs != 1:
        raise ValueError(f"solve runs in one process, got jobs={jobs}")
    began = time.monotonic()
    census = None
    try:
        tick = partial(_check_clock, began, budget, "sign-word census")
        census = gen, values, pages = _census(k, p, q, budget.max_words, tick)
        page0 = FreeModule(map(gen.__getitem__, values(pages[0])))
        cells, start, parts, tops, (top, count) = _closure(page0, budget, began)
        # Candidate B passes page P when B_x >= P_x at every corner x, so
        # when its story covers P's own counts on C.  Off C, B_x = page0_x
        # >= P_x: if P_x > page0_x at x = (i, t), then by P's degrees and
        # values of e page 0 has generators at (a <= i, e1 > t) and
        # (c > i, e2 <= t), a move of page 0 that changes x.  So B passes
        # every page when its story covers the need, the fieldwise maximum
        # of the pages' counts, each summed from its packed values' units.
        # Move rectangles of different components share no corner, so on
        # part j's fields B's story is the start's plus part j's rise: B
        # passes when each of its parts covers the need on its own fields.
        unit = _Made(lambda value: count([gen[value]]))
        low = len(page0).bit_length()  # field 0's guard bit, as _closure packs
        need = 0
        for page in pages:
            _check_clock(began, budget, "candidate filter")
            c = sum(map(unit.__getitem__, values(page)))
            ge = ((need | top) - c) & top  # the guard of each field where need >= c
            m = ge - (ge >> low)  # those fields' value bits
            need = (need & m) | (c & ~m)
        kept = []
        for part, top_j in zip(parts, tops):
            _check_clock(began, budget, "candidate filter")
            need_j = need & top_j - (top_j >> low)
            kept.append([s for s, rise in part.items()
                         if ((start[1] + rise | top_j) - need_j) & top_j == top_j])
        alive = sorted(map(sum, product([start[0]], *kept)), reverse=True)
    except BudgetExceededError as exc:
        return SolveReport(k, p, q, census, failure=str(exc))
    return SolveReport(k, p, q, census, cells, alive, None,
                       (start, parts, top, count, budget, began))
