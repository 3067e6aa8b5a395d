"""Independent classical checks for pages and candidate answers.

Nothing here feeds the solver.  These are the two commuting-square
validations (the y=1 image must be the classical Poincare polynomial of
the underlying Grassmannian, the y=1/x image that of the fixed set), the
total-weight count, the plain closure search, and the unpruned
exhaustive search for cross-checking the solver at small scale.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass, field

from .bipoly import BiPoly, UniPoly
from .modalg import FreeModule, possible_differentials, shift_result
from .schubert import (
    e1_page,
    enumerate_cells,
    sign_words,
    total_weight_formula,
    unique_e1_pages,
)
from .search import DEFAULT_MAX_MODULES, DEFAULT_MAX_WORDS, BudgetExceededError


def gaussian_binomial(p: int, k: int) -> UniPoly:
    """Poincare polynomial of the underlying Grassmannian Gr_k(R^p) in
    mod-2 cohomology, summed cell by cell.

    Counting cells by dimension keeps this independent of both the
    bigraded bookkeeping and the product formula for q-binomials.
    """
    cells = enumerate_cells(k, p)
    return UniPoly(Counter(sum(c - i for i, c in enumerate(pivots, 1)) for pivots in cells))


def fixed_set_poincare(k: int, p: int, q: int) -> UniPoly:
    """Poincare polynomial of the fixed set of Gr_k(R^{p,q}).

    A fixed k-plane splits into its fixed and anti-fixed parts, so the
    fixed set is a disjoint union of products of smaller Grassmannians:
    sum over j of Gr_j(R^{p-q}) x Gr_{k-j}(R^q).
    """
    if not (0 <= q <= p and 0 <= k <= p):
        raise ValueError(f"need 0 <= k, q <= p, got k={k}, p={p}, q={q}")
    total = UniPoly()
    for j in range(max(0, k - q), min(k, p - q) + 1):
        total = total + gaussian_binomial(p - q, j) * gaussian_binomial(q, k - j)
    return total


def closure_oracle(module: FreeModule, max_modules: int | None = None) -> list[FreeModule]:
    """``search.candidate_outcomes`` done slowly: a breadth-first search
    over sorted generator tuples that lists each state's moves afresh.
    A state counts when it is first taken off the queue, the start
    included.  The cap raises the same ``BudgetExceededError`` message."""
    seen = set()
    frontier = deque([module.gens])
    while frontier:
        gens = frontier.popleft()
        if gens in seen:
            continue
        seen.add(gens)
        if max_modules is not None and len(seen) > max_modules:
            raise BudgetExceededError(f"candidate enumeration exceeded {max_modules} modules")
        for src, tgt in possible_differentials(gens):
            after = list(gens)
            after.remove(src)
            after.remove(tgt)
            after.extend(shift_result(src, tgt))
            frontier.append(tuple(sorted(after)))
    return sorted(FreeModule(gens) for gens in seen)


def naive_solve(k: int, p: int, q: int) -> list[FreeModule]:
    """Exhaustive search: intersect the ``closure_oracle`` outcomes of
    every distinct first page, under the default word and module caps.
    Contains the true answer by construction; feasible only at small
    parameters."""
    pages = unique_e1_pages(k, p, q, max_words=DEFAULT_MAX_WORDS)
    common: set[FreeModule] | None = None
    for page in pages:
        outcomes = set(closure_oracle(page, DEFAULT_MAX_MODULES))
        common = outcomes if common is None else (common & outcomes)
        if not common:
            break
    return sorted(common or ())


@dataclass
class PageDiagnostics:
    """Pass/fail record of the independent checks on one module."""

    underlying_ok: bool
    fixed_set_ok: bool
    weight_ok: bool
    messages: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.underlying_ok and self.fixed_set_ok and self.weight_ok


def validate_page(module: FreeModule, k: int, p: int, q: int) -> PageDiagnostics:
    """Check a first page or candidate answer against the classical
    invariants of Gr_k(R^{p,q}).

    Shifts preserve all three invariants, so candidate answers must pass
    the same checks as first pages.
    """
    return validate_poincare(module.poincare(), k, p, q)


def validate_poincare(poly: BiPoly, k: int, p: int, q: int) -> PageDiagnostics:
    """``validate_page`` on a module's Poincare polynomial, which fixes
    its total weight: the sum of j * c over its terms c x^i y^j."""
    weight = sum(j * c for (_, j), c in poly.terms())
    checks = [
        ("underlying", gaussian_binomial(p, k), poly.underlying()),
        ("fixed set", fixed_set_poincare(k, p, q), poly.fixed_points()),
        ("total weight", total_weight_formula(k, p, q), weight),
    ]
    messages = [f"{name}: expected {want}, got {got}" for name, want, got in checks if want != got]
    return PageDiagnostics(*(want == got for _, want, got in checks), messages)


def overcount_total_weight(p: int, k: int, q: int) -> tuple[int, int]:
    """Both sides of the overcounting identity behind the total-weight
    formula.

    Summing weights over all C(p, q) sign words counts, for each of the
    C(p, k) cells, its average k(p-k)/2 free entries, each signed in
    2 C(p-2, q-1) of the words; with denominators cleared that is
    C(p, k) * k * (p - k) * C(p-2, q-1).  Returns (word sum, product).
    """
    lhs = sum(e1_page(k, w).total_weight() for w in sign_words(p, q))
    rhs = math.comb(p, k) * k * (p - k) * math.comb(p - 2, q - 1) if q >= 1 else 0
    return lhs, rhs
