"""Free bigraded modules as multisets of bidegrees, and shift moves.

A free module here is nothing but a finite multiset of bidegrees (a, b):
one entry per free summand shifted into that bidegree, held as a plain
``(a, b)`` int pair.  A move is the pair ``(src, tgt)`` of its two
ends.  The bigraded Poincare polynomial of the multiset is a complete
invariant.  B can be reached from A by shifts exactly when the shift
story (P_B - P_A) / K_{1,1} exists and is nonnegative.  Writing
e = a - b, the story's coefficient at x^i y^j is #B - #A over the corner
{a <= i, e < i - j}, so ``FreeModule.can_relax_to`` decides relaxation by
counting generators in corners, with no polynomial arithmetic.  The
story itself is ``poly_story``, which ``FreeModule.shift_story`` (the
tests' oracle for relaxation) and the ``story`` command both call.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, chain, repeat
from typing import Iterable

from .bipoly import BiPoly


def is_legal_shift(src: tuple[int, int], tgt: tuple[int, int]) -> bool:
    """The move rule: src = (a, b) and tgt = (c, d) admit a shift when
    n = c - a >= 1 and s = (d - b) - n >= 1.  Equivalently the supporting
    element of the target summand in the bidegree just above src lies in
    the negative cone of the point cohomology."""
    n = tgt[0] - src[0]
    return n >= 1 and (tgt[1] - src[1]) - n >= 1


def possible_differentials(pairs: Iterable[tuple[int, int]]) -> list[tuple]:
    """Every move (src, tgt) among the distinct bidegrees of ``pairs``,
    such as a ``FreeModule``, that ``is_legal_shift`` admits, sorted by
    src, then tgt.  A legal tgt has a larger degree, so only the
    bidegrees sorted after src are tried."""
    distinct = sorted(set(pairs))
    return [
        (src, tgt)
        for i, src in enumerate(distinct)
        for tgt in distinct[i + 1:]
        if is_legal_shift(src, tgt)
    ]


def shift_result(src: tuple[int, int], tgt: tuple[int, int]) -> tuple[tuple, tuple]:
    """The two bidegrees a legal shift leaves behind: src = (a, b) rises
    to (a, b + s) and tgt = (c, d) falls to (c, b + n), where n = c - a
    and s = (d - b) - n."""
    a, b = src
    c, d = tgt
    return (a, d - c + a), (c, b + c - a)


class FreeModule:
    """An immutable multiset of bidegrees in canonical sorted order.

    Each generator is a plain ``(a, b)`` tuple of exact ints; ``bool``,
    ``float`` and every other type raise ``ValueError``.  Weights must be
    nonnegative; the stronger cell constraint b <= a is enforced where
    modules are built from Schubert data, not here, so hand-entered
    modules stay representable.  A generator that is already a tuple is
    kept, not copied, so modules built from others share generators.
    """

    __slots__ = ("_gens", "_tension")

    def __init__(self, gens: Iterable[tuple[int, int]] = ()):
        pairs = list(map(tuple, gens))
        for a, b in pairs:
            if type(a) is not int or type(b) is not int:
                raise ValueError(f"bidegree ({a!r}, {b!r}) is not a pair of ints")
            if a < 0 or b < 0:
                raise ValueError(f"bidegree ({a}, {b}) has a negative entry")
        pairs.sort()
        object.__setattr__(self, "_gens", tuple(pairs))
        object.__setattr__(self, "_tension", None)

    def __setattr__(self, name, value):
        raise AttributeError("FreeModule is immutable")

    @classmethod
    def _known(cls, gens: tuple[tuple[int, int], ...], tension: int) -> "FreeModule":
        """The module of ``gens``, sorted pairs of ints >= 0, of known tension."""
        module = object.__new__(cls)
        object.__setattr__(module, "_gens", gens)
        object.__setattr__(module, "_tension", tension)
        return module

    @classmethod
    def from_counts(cls, counts: dict[tuple[int, int], int]) -> "FreeModule":
        gens = []
        for (a, b), k in counts.items():
            if type(k) is not int:
                raise ValueError(f"multiplicity {k!r} for ({a!r}, {b!r}) is not an int")
            if k < 0:
                raise ValueError(f"negative multiplicity for ({a}, {b})")
            gens.extend([(a, b)] * k)
        return cls(gens)

    @property
    def gens(self) -> tuple[tuple[int, int], ...]:
        return self._gens

    def counts(self) -> dict[tuple[int, int], int]:
        return dict(Counter(self._gens))

    def __len__(self) -> int:
        return len(self._gens)

    def __iter__(self):
        return iter(self._gens)

    def __eq__(self, other) -> bool:
        return isinstance(other, FreeModule) and self._gens == other._gens

    def __lt__(self, other: "FreeModule") -> bool:
        return self._gens < other._gens

    def __hash__(self) -> int:
        return hash(self._gens)

    def __add__(self, other: "FreeModule") -> "FreeModule":
        """Direct sum: the multisets are merged."""
        if not isinstance(other, FreeModule):
            return NotImplemented
        return FreeModule(self._gens + other._gens)

    def __repr__(self) -> str:
        inner = ", ".join(f"({a},{b})" for a, b in self._gens)
        return f"FreeModule([{inner}])"

    # -- invariants ------------------------------------------------------

    def poincare(self) -> BiPoly:
        return BiPoly(self.counts())

    def tension(self) -> int:
        """poincare evaluated at (1, 2); strictly drops under every shift."""
        if self._tension is None:
            object.__setattr__(self, "_tension", sum(1 << b for _, b in self._gens))
        return self._tension

    def total_weight(self) -> int:
        return sum(b for _, b in self._gens)

    # -- shifts ----------------------------------------------------------

    def apply_shift(self, move: tuple) -> "FreeModule":
        """Apply one move (src, tgt); the Poincare polynomial changes by
        x^a y^b K_{n,s}.  The ends may be lists, as JSON gives them."""
        src, tgt = map(tuple, move)
        if src not in self._gens:
            raise ValueError(f"module has no generator at {src}")
        if tgt not in self._gens:
            raise ValueError(f"module has no generator at {tgt}")
        if not is_legal_shift(src, tgt):
            raise ValueError(f"illegal shift {src} -> {tgt}: need n >= 1 and s >= 1")
        gens = list(self._gens)
        gens.remove(src)
        gens.remove(tgt)
        gens.extend(shift_result(src, tgt))
        return FreeModule(gens)

    def shift_story(self, other: "FreeModule") -> BiPoly | None:
        """(poincare(other) - poincare(self)) / K_{1,1}, or None.

        None means the two modules are not related by shifts at all; a
        story with a negative coefficient means some shifts would have to
        run backwards.
        """
        return poly_story(self.poincare(), other.poincare())

    def can_relax_to(self, other: "FreeModule") -> bool:
        """True iff other is reachable from self by (possibly zero) shifts.

        Equivalent to ``shift_story(other)`` existing and being
        nonnegative, decided by corner counts in coordinates (a, e = a - b):
        both modules need the same degrees (the underlying polynomial) and
        the same multiset of e (the fixed-point polynomial), and other must
        have at least as many generators as self in every corner
        {a <= i, e < t}, which is the story's coefficient there.  Every
        shift adds a nonnegative story, so reachable modules pass these
        counts.  The converse, that every module passing them is reached by
        legal single shifts, is not proven; ``tests/test_search.py`` checks
        it in ``test_closure_is_relaxation_down_set`` on random modules and
        in ``test_closure_is_the_down_set_in_the_box`` on all small ones.
        """
        if self._gens == other._gens:
            return True
        # A nonzero nonnegative story strictly lowers tension.
        if other.tension() >= self.tension():
            return False
        src, tgt = self._gens, other._gens
        if len(src) != len(tgt):
            return False
        # diff[e + top] is #other - #self at e over the rows read so far.
        # 2**b <= tension, so top bounds every weight of both modules and
        # every index is nonnegative.
        top = self.tension().bit_length() - 1
        diff = [0] * (src[-1][0] + top + 1)
        row = src[0][0]
        for (a, b), (c, d) in zip(src, tgt):
            if a != c:
                return False
            if a != row:
                # The prefix sums of diff are the story's coefficients
                # on the row just finished.
                if min(accumulate(diff)) < 0:
                    return False
                row = a
            diff[a - b + top] -= 1
            diff[c - d + top] += 1
        return not any(diff)

    # -- encodings ---------------------------------------------------------

    def to_json(self) -> dict:
        return {"generators": [[a, b, k] for (a, b), k in sorted(self.counts().items())]}

    @classmethod
    def from_json(cls, data: dict) -> "FreeModule":
        return module_from_poly(poincare_from_json(data))


def poincare_from_json(data: dict) -> BiPoly:
    """The Poincare polynomial of module JSON, ``{"generators": [[a, b,
    count], ...]}``, with every entry checked and no generator built;
    ``FreeModule.from_json`` builds the module from it."""
    if not isinstance(data, dict) or "generators" not in data:
        raise ValueError("module JSON must be an object with a 'generators' key")
    entries = data["generators"]
    if not isinstance(entries, list):
        raise ValueError("'generators' must be a list of [a, b, count] triples")
    for entry in entries:
        if type(entry) is not list or [type(x) for x in entry] != [int, int, int]:
            raise ValueError(f"generator {entry!r} is not an [a, b, count] triple of ints")
        if entry[2] < 0:
            raise ValueError(f"generator {entry!r} has a negative count")
    counts: Counter = Counter()
    for a, b, k in entries:
        if k and (a < 0 or b < 0):
            raise ValueError(f"bidegree ({a}, {b}) has a negative entry")
        counts[a, b] += k
    return BiPoly(+counts)  # + drops zero counts, whose a or b may be negative


def poly_story(start: BiPoly, end: BiPoly) -> BiPoly | None:
    """(end - start) / K_{1,1}, or None if that is no polynomial: K_{1,1} =
    (1 - xy)(y - 1), two coprime irreducibles, divides the difference exactly
    when y = 1 and y = 1/x both send it to 0, and only then is it divided."""
    diff = end - start
    return None if diff.underlying() or diff.fixed_points() else diff.divide_by_k11()


def module_poly(f: BiPoly) -> BiPoly:
    """f, once checked to be the Poincare polynomial of a module: no
    coefficient may be negative."""
    bad = [e for e, c in f.terms() if c < 0]
    if bad:
        monos = ", ".join(f"x^{i}y^{j}" for i, j in bad)
        raise ValueError(f"negative coefficient on {monos}: not a module")
    return f


def module_from_poly(f: BiPoly) -> FreeModule:
    """Inverse of poincare; rejects polynomials with negative coefficients."""
    return FreeModule(chain.from_iterable(repeat(g, k) for g, k in module_poly(f).terms()))


def render_rank_table(module: FreeModule) -> str:
    """Plain-text rank table: topological degree rightward, weight upward.

    Counts the generators in each bidegree; zero cells are left blank.
    The origin sits at the lower left, matching the published tables, so
    output can be diffed against them by eye.  An empty module renders as
    an empty string.
    """
    counts = module.counts()
    if not counts:
        return ""
    max_a = max(a for a, _ in counts)
    max_b = max(b for _, b in counts)
    width = max(len(str(max_a)), *(len(str(k)) for k in counts.values()))
    label_w = len(str(max_b))
    lines = []
    for b in range(max_b, -1, -1):
        cells = []
        for a in range(max_a + 1):
            k = counts.get((a, b), 0)
            cells.append(str(k).rjust(width) if k else " " * width)
        lines.append(f"{str(b).rjust(label_w)} | " + " ".join(cells))
    lines.append("-" * label_w + "-+-" + "-" * ((width + 1) * (max_a + 1) - 1))
    axis = " ".join(str(a).rjust(width) for a in range(max_a + 1))
    lines.append(" " * label_w + " | " + axis)
    return "\n".join(line.rstrip() for line in lines)
