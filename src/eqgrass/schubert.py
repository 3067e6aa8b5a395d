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

Every page builder computes weights by one formula on packed column
slices, with a field for each row of the cells.  Per column j, free[j]
has a one in each row where j is free and pivot[j] an all-ones field in
each row whose pivot is j; D holds each row's count of free columns.
For a word with sign positions S, A = sum of free[j] over S and M = sum
of pivot[j] over S give the row weights (A & ~M) | ((D - A) & M): a row
with a sign pivot weighs its free trivial columns, any other row its
free sign columns.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import partial
from itertools import combinations, repeat
from typing import Callable, Iterable, Sequence

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
    def positions(self) -> tuple[int, ...]:
        """The 0-based positions of the sign letters."""
        return tuple(j for j, s in enumerate(self.signs) if s)


def enumerate_cells(k: int, p: int) -> list[tuple[int, ...]]:
    """All C(p, k) cells in lexicographic order.  A cell is its tuple of
    strictly increasing, 1-based pivot columns."""
    if k < 0 or p < 0 or k > p:
        raise ValueError(f"need 0 <= k <= p, got k={k}, p={p}")
    return list(combinations(range(1, p + 1), k))


def _typecode(size: int) -> str:
    """The smallest struct integer code whose fields hold ``size``."""
    return next(t for t in "BHIQ" if size < 1 << 8 * struct.calcsize(">" + t))


def _weigher(cells: list[tuple[int, ...]], k: int, p: int) -> tuple[str, int, Callable]:
    """``(code, bits, weigh)``: ``weigh(signs)`` gives each cell's dimension
    d and weight w under the word whose sign letters sit at the 0-based
    positions ``signs``, as ``d << bits | w``, which the struct integer
    code ``code`` holds.  Each cell has k of the p columns."""
    bits = (k * (p - k)).bit_length()  # k(p - k) is the largest dimension
    code = _typecode(k * (p - k) << bits | k * (p - k))
    size = struct.calcsize("<" + code)
    stride = max(k, 1) * size  # a cell's rows; with k = 0 one empty row
    n = stride * len(cells)
    free = [bytearray(n) for _ in range(p)]
    pivot = [bytearray(n) for _ in range(p)]
    dims = bytearray(n)
    for at, pivots in zip(range(0, n, stride), cells):
        taken = {c - 1 for c in pivots}
        dim = 0
        for row, c in zip(range(at, n, size), pivots):
            cols = [j for j in range(c - 1) if j not in taken]
            for j in cols:
                free[j][row] = 1
            pivot[c - 1][row:row + size] = b"\xff" * size
            dim += len(cols)
        dims[at:at + size] = (dim << bits).to_bytes(size, "little")
    ints = partial(int.from_bytes, byteorder="little")
    free, pivot, dims = [*map(ints, free)], [*map(ints, pivot)], ints(dims)
    d = sum(free)  # each row's count of free columns
    fold = range(0, 8 * size * k, 8 * size)  # sums a cell's rows into its first
    unpack = struct.Struct("<" + f"{code}{stride - size}x" * len(cells)).unpack

    def weigh(signs: Sequence[int]) -> tuple[int, ...]:
        a = sum(map(free.__getitem__, signs))  # each row's free sign columns
        m = sum(map(pivot.__getitem__, signs))  # all ones in rows with a sign pivot
        rows = (a & ~m) | ((d - a) & m)
        return unpack(sum((rows >> s for s in fold), dims).to_bytes(n, "little"))

    return code, bits, weigh


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
    _, bits, weigh = _weigher([pivots], len(pivots), word.p)
    return divmod(weigh(word.positions)[0], 1 << bits)


def e1_page(k: int, word: SignWord) -> FreeModule:
    """First page of the filtration spectral sequence: one generator
    per cell at (dimension, weight)."""
    _, bits, weigh = _weigher(enumerate_cells(k, word.p), k, word.p)
    page = FreeModule(map(divmod, weigh(word.positions), repeat(1 << bits)))
    assert all(0 <= b <= a for a, b in page.gens)
    return page


def _sign_positions(p: int, q: int) -> Iterable[tuple[int, ...]]:
    """The 0-based sign positions of each word, in lexicographic order."""
    if q < 0 or q > p:
        raise ValueError(f"need 0 <= q <= p, got q={q}, p={p}")
    return combinations(range(p), q)


def sign_words(p: int, q: int) -> list[SignWord]:
    """All C(p, q) words with q sign letters, in lexicographic order."""
    return [SignWord(tuple(i in signs for i in range(p))) for signs in _sign_positions(p, q)]


class _Made(dict):
    """A dict that makes each missing value from its key, once."""

    def __init__(self, make: Callable):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _census(k: int, p: int, q: int, max_words: int | None = None,
            tick: Callable | None = None) -> tuple[dict, Callable, list[bytes]]:
    """``(gen, values, pages)``: the distinct first pages over all sign words
    in ``unique_e1_pages``' order, packed in bytes; ``values(page)`` gives a
    page's packed generators in canonical order, and ``gen[value]`` one's bidegree."""
    positions = _sign_positions(p, q)
    n_words = math.comb(p, q)
    if max_words is not None and n_words > max_words:
        raise BudgetExceededError(
            f"(k={k}, p={p}, q={q}) needs {n_words} sign words, over the "
            f"budget of {max_words}; raise the word budget to continue"
        )
    cells = enumerate_cells(k, p)
    code, bits, weigh = _weigher(cells, k, p)
    # A page is its generators d << bits | w, sorted and packed big-endian,
    # so that bytes order is canonical module order among pages of equal
    # tension.
    packed = struct.Struct(f">{len(cells)}{code}")
    pages = set()
    for signs in positions:
        pages.add(packed.pack(*sorted(weigh(signs))))
        if tick is not None:
            tick()
    gen = _Made(lambda value: divmod(value, 1 << bits))
    power = _Made(lambda value: 1 << (value & (1 << bits) - 1))

    def tension(page: bytes) -> int:
        return sum(map(power.__getitem__, packed.unpack(page)))

    return gen, packed.unpack, sorted(pages, key=lambda page: (tension(page), page))


def unique_e1_pages(k: int, p: int, q: int, max_words: int | None = None) -> list[FreeModule]:
    """Deduplicated first pages over all sign words, sorted by tension
    ascending (ties broken by canonical module order).

    ``max_words`` caps how many of the C(p, q) sign words get examined;
    exceeding it raises BudgetExceededError rather than churning on a
    space whose downstream search is out of reach anyway.  No word list
    is built: each word is visited as its sign positions.
    """
    gen, values, pages = _census(k, p, q, max_words)
    return [FreeModule(map(gen.__getitem__, values(page))) for page in pages]


def e1_quotient_page(k: int, word: SignWord, m: int) -> FreeModule:
    """First page of the quotient by the sub-Grassmannian on the first
    m coordinates: the generators of cells with a pivot beyond column m.
    """
    if m >= word.p:
        raise ValueError(f"need m < p, got m={m}, p={word.p}")
    if m < 0:
        raise ValueError("m must be nonnegative")
    cells = [c for c in enumerate_cells(k, word.p) if c and c[-1] > m]
    _, bits, weigh = _weigher(cells, k, word.p)
    return FreeModule(map(divmod, weigh(word.positions), repeat(1 << bits)))


def total_weight_formula(k: int, p: int, q: int) -> int:
    """Total weight of any first page of Gr_k(R^{p,q}):
    (p-q) * q * C(p-2, k-1), independent of the sign word."""
    check_parameters(k, p, q)
    return (p - q) * q * math.comb(p - 2, k - 1)


def normalize_parameters(k: int, p: int, q: int) -> tuple[int, int, int]:
    """Smallest equivalent parameters under Gr_k = Gr_{p-k} and
    R^{p,q} = R^{p,p-q}.  Never applied silently; callers opt in."""
    return (min(k, p - k), p, min(q, p - q))
