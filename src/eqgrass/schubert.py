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

Every page builder weighs a block of words at once, on ints with an f-bit
field per word.  S[j] has a one in the field of each word with a sign
letter at column j.  Row r of a cell, with 0-based pivot column c, has
c - r free columns: A = S[0] + ... + S[c - 1] less S of the cell's earlier
pivots counts its free sign columns, M = S[c] * (2^f - 1) fills the fields
of the words with a sign pivot, and the row weighs (A & ~M) | ((c - r - A)
& M): a row with a sign pivot weighs its free trivial columns, any other
row its free sign columns.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass
from itertools import accumulate, combinations, islice
from operator import add
from typing import Callable, Iterable, Iterator, Sequence

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


class _Made(dict):
    """A dict that makes each missing value from its key, once."""

    def __init__(self, make: Callable):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class _Weigher:
    """Weighs ``cells`` of Gr_k(R^p), of dimensions ``dims``, under the words
    with q sign letters, BLOCK_WORDS at a time, an f-bit field of type code
    ``code`` per word.  A page packs its generators d << bits | w sorted and
    big-endian, so bytes order is canonical module order at equal tension."""

    def __init__(self, cells: list[tuple[int, ...]], p: int, q: int = 0):
        self.cells, self.p, self.q = cells, p, q
        self.dims = [sum(c) - len(c) * (len(c) + 1) // 2 for c in cells]  # free entries
        top = max(self.dims, default=0)
        self.code = _typecode(max(top, len(cells)) << 1)  # and a guard bit
        self.f, self.bits = 8 * struct.calcsize(self.code), top.bit_length()
        self.power = [1 << w for w in range(top + 1)].__getitem__
        self.packed = struct.Struct(f">{len(cells)}{_typecode(top << self.bits | top)}")
        self.shifted = [d << self.bits for d in self.dims]

    def weigh(self, words: Sequence[Sequence[int]]) -> list[int]:
        """Each cell's weights under ``words``, each its sign positions: field w for words[w]."""
        size, full = self.f // 8, (1 << self.f) - 1
        marks = [bytearray(size * len(words)) for _ in range(self.p)]
        for at, signs in zip(range(0, size * len(words), size), words):
            for j in signs:
                marks[j][at] = 1
        sign = [int.from_bytes(m, "little") for m in marks]
        prefix, fill = [*accumulate(sign, initial=0)], [s * full for s in sign]
        ones, weights = ((1 << self.f * len(words)) - 1) // full, []
        for pivots in self.cells:
            weight = taken = 0
            for r, c in enumerate(pivots):
                a, m = prefix[c - 1] - taken, fill[c - 1]
                weight += (a & ~m) | (((c - 1 - r) * ones - a) & m)
                taken += sign[c - 1]
            weights.append(weight)
        return weights

    def columns(self, n: int, weights: list[int]) -> list[memoryview]:
        """The first ``n`` fields of each packed int, field 0 first."""
        size, step = n * self.f // 8, 1 if sys.byteorder == "little" else -1
        return [memoryview(w.to_bytes(size, sys.byteorder)).cast(self.code)[::step] for w in weights]

    def page(self, word: SignWord) -> FreeModule:
        return FreeModule(zip(self.dims, self.weigh([word.positions])))

    def blocks(self) -> Iterator[tuple[int, list[int]]]:
        """Each block's word count and cell weights."""
        words = _sign_positions(self.p, self.q)
        while block := [*islice(words, BLOCK_WORDS)]:
            yield len(block), self.weigh(block)

    def key(self, weights: Sequence[int]) -> tuple[int, bytes]:
        """A word's page as its tension and packed bytes, which order pages."""
        return sum(map(self.power, weights)), self.packed.pack(*sorted(map(add, self.shifted, weights)))

    def least(self, tick: Callable[[], None]) -> tuple[FreeModule, Iterable[tuple[int, list[int]]]]:
        """Page 0, the page of least tension, ties broken on the keys of its
        words alone, and the blocks once more; ``tick`` follows each block."""
        best = (math.inf,)
        for i, block in enumerate(self.blocks()):
            for ws in zip(*self.columns(*block)):
                if sum(map(self.power, ws)) <= best[0]:
                    best = min(best, (*self.key(ws), ws))
            tick()
        return FreeModule(zip(self.dims, best[2])), [block] if i == 0 else self.blocks()

    def pages(self) -> list[FreeModule]:
        """The distinct pages by tension, then bytes, sharing generator tuples."""
        keys = sorted({self.key(ws) for block in self.blocks() for ws in zip(*self.columns(*block))})
        gen = _Made(lambda value: divmod(value, 1 << self.bits))
        return [FreeModule(map(gen.__getitem__, self.packed.unpack(page))) for _, page in keys]

    def most(self, n: int, weights: list[int], corners: list[tuple[int, int]]) -> list[int]:
        """Each corner (i, t)'s most cells with d <= i and w >= d - t in one of ``n`` words."""
        ones = ((1 << self.f * n) - 1) // ((1 << self.f) - 1)
        guard = ones << self.f - 1  # (w | guard) - (d - t) keeps it where w >= d - t
        counts = [sum((w | guard) - (d - t) * ones & guard for d, w in zip(self.dims, weights)
                      if d <= i) >> self.f - 1 for i, t in corners]
        return [*map(max, self.columns(n, counts))]


def cell_bidegree(pivots: tuple[int, ...], word: SignWord) -> tuple[int, int]:
    """Dimension and weight of a cell under the given sign word.

    The dimension counts the free entries; the weight counts the free
    entries whose column letter differs from their row's pivot letter.
    """
    if not all(type(b) is int and a < b for a, b in zip((0, *pivots), pivots)):
        raise ValueError(f"pivots {pivots} must be ints strictly increasing from 1")
    if pivots and word.p < pivots[-1]:
        raise ValueError(f"sign word of length {word.p} too short for pivots {pivots}")
    return _Weigher([pivots], word.p).page(word).gens[0]


def e1_page(k: int, word: SignWord) -> FreeModule:
    """First page of the filtration spectral sequence: one generator
    per cell at (dimension, weight)."""
    page = _Weigher(enumerate_cells(k, word.p), word.p).page(word)
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


BLOCK_WORDS = 2048  # words weighed at once; the default word budget fits in one block


def _census(k: int, p: int, q: int, max_words: int | None = None) -> _Weigher:
    """The weigher of every cell under the C(p, q) sign words, within ``max_words``."""
    _sign_positions(p, q)  # checks q
    if max_words is not None and math.comb(p, q) > max_words:
        raise BudgetExceededError(f"(k={k}, p={p}, q={q}) needs {math.comb(p, q)} sign words, over "
                                  f"the budget of {max_words}; raise the word budget to continue")
    return _Weigher(enumerate_cells(k, p), p, q)


def unique_e1_pages(k: int, p: int, q: int, max_words: int | None = None) -> list[FreeModule]:
    """Deduplicated first pages over all sign words, sorted by tension
    ascending (ties broken by canonical module order).

    ``max_words`` caps how many of the C(p, q) sign words get examined;
    exceeding it raises BudgetExceededError rather than churning on a
    space whose downstream search is out of reach anyway.  Words are weighed
    BLOCK_WORDS at a time, so no list of words or weights outgrows a block.
    """
    return _census(k, p, q, max_words).pages()


def e1_quotient_page(k: int, word: SignWord, m: int) -> FreeModule:
    """First page of the quotient by the sub-Grassmannian on the first
    m coordinates: the generators of cells with a pivot beyond column m.
    """
    if m >= word.p:
        raise ValueError(f"need m < p, got m={m}, p={word.p}")
    if m < 0:
        raise ValueError("m must be nonnegative")
    return _Weigher([c for c in enumerate_cells(k, word.p) if c and c[-1] > m], word.p).page(word)


def total_weight_formula(k: int, p: int, q: int) -> int:
    """Total weight of any first page of Gr_k(R^{p,q}):
    (p-q) * q * C(p-2, k-1), independent of the sign word."""
    check_parameters(k, p, q)
    return (p - q) * q * math.comb(p - 2, k - 1)


def normalize_parameters(k: int, p: int, q: int) -> tuple[int, int, int]:
    """Smallest equivalent parameters under Gr_k = Gr_{p-k} and
    R^{p,q} = R^{p,p-q}.  Never applied silently; callers opt in."""
    return (min(k, p - k), p, min(q, p - q))
