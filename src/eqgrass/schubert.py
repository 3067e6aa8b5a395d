"""Schubert cells of real Grassmannians and their equivariant weights.

A point of Gr_k(R^p) lies in exactly one Schubert cell, indexed by the
set of pivot columns of its reduced matrix.  We use the convention in
which the pivot of a row is its last nonzero entry, so the free entries
of row i sit at columns j < c_i not occupied by other pivots; this makes
Gr_k of a prefix of the coordinates a subcomplex, which the quotient
construction relies on.

Choosing an ordered identification of R^{p,q} as a sum of one-dimensional
representations (a sign word) makes each cell an equivariant disc: a free
entry acquires the sign action exactly when its own column and its row's
pivot column carry different letters.  The first page of the filtration
spectral sequence then has one generator per cell, placed at
(dimension, weight).

Every page builder computes weights by one bitmask formula: bit j - 1
stands for column j, a word is the mask of its sign letters, and each
row of a cell is its pivot bit with the mask of its free columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, repeat
from operator import getitem
from typing import Callable, Iterable

from .modalg import FreeModule


class BudgetExceededError(RuntimeError):
    """A search outgrew its configured budget and stopped cleanly."""


def check_parameters(k: int, p: int, q: int) -> None:
    """Reject (k, p, q) unless 1 <= k <= p-1 and 0 <= q <= p."""
    if not (1 <= k <= p - 1):
        raise ValueError(f"k={k} out of range: need 1 <= k <= p-1 with p={p}")
    if not (0 <= q <= p):
        raise ValueError(f"q={q} out of range: need 0 <= q <= p with p={p}")


@dataclass(frozen=True)
class SignWord:
    """An ordered sum of trivial (+) and sign (-) one-dimensional reps."""

    signs: tuple[bool, ...]  # True where the letter is the sign rep

    @classmethod
    def from_string(cls, text: str) -> "SignWord":
        bad = [ch for ch in text if ch not in "+-"]
        if bad:
            raise ValueError(f"sign word may contain only '+'/'-', got {bad[0]!r}")
        return cls(tuple(ch == "-" for ch in text))

    @property
    def p(self) -> int:
        return len(self.signs)

    @property
    def q(self) -> int:
        return sum(self.signs)

    def __str__(self) -> str:
        return "".join("-" if s else "+" for s in self.signs)

    @property
    def mask(self) -> int:
        return sum(1 << j for j, s in enumerate(self.signs) if s)


def enumerate_cells(k: int, p: int) -> list[tuple[int, ...]]:
    """All C(p, k) cells in lexicographic order.  A cell is its tuple of
    strictly increasing, 1-based pivot columns."""
    if k < 0 or p < 0 or k > p:
        raise ValueError(f"need 0 <= k <= p, got k={k}, p={p}")
    return list(combinations(range(1, p + 1), k))


def _cell_rows(cells: Iterable[tuple[int, ...]]) -> tuple[list, list]:
    """Each cell's (dimension, weight) pairs indexed by weight, shared
    by every page, and the rows of all cells in order.  A row is (pivot
    bit, mask of the columns left of the pivot that are not pivots)."""
    gens, rows = [], []
    for pivots in cells:
        taken = sum(1 << (c - 1) for c in pivots)
        cell = [(1 << (c - 1), ((1 << (c - 1)) - 1) & ~taken) for c in pivots]
        dim = sum(free.bit_count() for _, free in cell)
        gens.append(tuple((dim, w) for w in range(dim + 1)))
        rows += cell
    return gens, rows


def _bidegrees(gens: list, rows: list, k: int, mask: int) -> list[tuple[int, int]]:
    """(dimension, weight) of each cell under the word whose sign letters
    are the set bits of ``mask``: a row weighs the free columns whose
    letter differs from its pivot's."""
    flip = ~mask
    weights = [(free & (flip if mask & bit else mask)).bit_count() for bit, free in rows]
    # Each cell owns k consecutive rows; with k = 0 the one cell is empty.
    per_cell = map(sum, zip(*[iter(weights)] * k)) if k else repeat(0)
    return list(map(getitem, gens, per_cell))


def cell_bidegree(pivots: tuple[int, ...], word: SignWord) -> tuple[int, int]:
    """Dimension and weight of a cell under the given sign word.

    The dimension counts the free entries; the weight counts the free
    entries whose column letter differs from their row's pivot letter.
    """
    if not all(type(b) is int and a < b for a, b in zip((0, *pivots), pivots)):
        raise ValueError(f"pivots {pivots} must be ints strictly increasing from 1")
    if pivots and word.p < pivots[-1]:
        raise ValueError(
            f"sign word of length {word.p} too short for pivots {pivots}"
        )
    return _bidegrees(*_cell_rows([pivots]), len(pivots), word.mask)[0]


def e1_page(k: int, word: SignWord) -> FreeModule:
    """First page of the filtration spectral sequence: one generator
    per cell at (dimension, weight)."""
    gens = _bidegrees(*_cell_rows(enumerate_cells(k, word.p)), k, word.mask)
    assert all(0 <= b <= a for a, b in gens)
    return FreeModule(gens)


def _sign_positions(p: int, q: int) -> Iterable[tuple[int, ...]]:
    """The 0-based sign positions of each word, in lexicographic order."""
    if q < 0 or q > p:
        raise ValueError(f"need 0 <= q <= p, got q={q}, p={p}")
    return combinations(range(p), q)


def sign_words(p: int, q: int) -> list[SignWord]:
    """All C(p, q) words with q sign letters, in lexicographic order."""
    return [SignWord(tuple(i in signs for i in range(p))) for signs in _sign_positions(p, q)]


def unique_e1_pages(
    k: int, p: int, q: int, max_words: int | None = None, tick: Callable | None = None
) -> list[FreeModule]:
    """Deduplicated first pages over all sign words, sorted by tension
    ascending (ties broken by canonical module order).

    ``max_words`` caps how many of the C(p, q) sign words get examined;
    exceeding it raises BudgetExceededError rather than churning on a
    space whose downstream search is out of reach anyway.  ``tick``, if
    given, is called after each word and may raise to stop the census.
    No word list is built: each word is visited as a mask.
    """
    positions = _sign_positions(p, q)
    n_words = math.comb(p, q)
    if max_words is not None and n_words > max_words:
        raise BudgetExceededError(
            f"(k={k}, p={p}, q={q}) needs {n_words} sign words, over the "
            f"budget of {max_words}; raise the word budget to continue"
        )
    gens, rows = _cell_rows(enumerate_cells(k, p))
    seen: set[FreeModule] = set()
    for signs in positions:
        seen.add(FreeModule(_bidegrees(gens, rows, k, sum(1 << j for j in signs))))
        if tick is not None:
            tick()
    return sorted(seen, key=lambda m: (m.tension(), m.gens))


def e1_quotient_page(k: int, word: SignWord, m: int) -> FreeModule:
    """First page of the quotient by the sub-Grassmannian on the first
    m coordinates: the generators of cells with a pivot beyond column m.
    """
    if m >= word.p:
        raise ValueError(f"need m < p, got m={m}, p={word.p}")
    if m < 0:
        raise ValueError("m must be nonnegative")
    cells = [c for c in enumerate_cells(k, word.p) if c and c[-1] > m]
    return FreeModule(_bidegrees(*_cell_rows(cells), k, word.mask))


def total_weight_formula(k: int, p: int, q: int) -> int:
    """Total weight of any first page of Gr_k(R^{p,q}):
    (p-q) * q * C(p-2, k-1), independent of the sign word."""
    check_parameters(k, p, q)
    return (p - q) * q * math.comb(p - 2, k - 1)


def normalize_parameters(k: int, p: int, q: int) -> tuple[int, int, int]:
    """Smallest equivalent parameters under Gr_k = Gr_{p-k} and
    R^{p,q} = R^{p,p-q}.  Never applied silently; callers opt in."""
    return (min(k, p - k), p, min(q, p - q))
