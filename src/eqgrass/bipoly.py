"""Exact sparse arithmetic in Z[x,y] for bigraded Poincare polynomials.

The bivariate polynomials here record free bigraded modules: a summand in
bidegree (a, b) contributes the monomial x^a y^b.  Tension and shift
stories reduce to arithmetic in this ring (the relaxation check counts
generators instead, and the division here is its oracle), to the two
substitution operators

    underlying:   f(x, y) -> f(x, 1)      (Poincare polynomial of the
                                            underlying space)
    fixed_points: f(x, y) -> f(x, 1/x)    (Poincare polynomial of the
                                            fixed set; may be Laurent)

and to exact division by the fundamental shift polynomial

    K_{1,1} = (1 - xy)(y - 1).

Every shift polynomial is a multiple of K_{1,1}, and one polynomial is a
Groebner basis of the ideal it generates, so that division is ordinary
long division in the graded-lex order of ``terms()``.  Coefficients are
plain Python integers, so arithmetic is exact at any size and can never
wrap.
"""

from __future__ import annotations

import operator
import re
from typing import Iterator, Mapping


class PolynomialParseError(ValueError):
    """Raised when a polynomial string cannot be parsed."""


def _graded_lex_key(exps: tuple[int, int]) -> tuple[int, int]:
    i, j = exps
    return (i + j, i)


class _SparsePoly:
    """Immutable sparse polynomial: a map exponent -> nonzero coefficient.

    Subclasses fix the exponent type.  Their constructors drop zero
    coefficients, so two equal polynomials always hold identical term
    maps; they supply ``__init__``, the exponent sum ``_times``, the
    descending term order ``_order_key`` and the monomial text ``_monomial``.
    """

    __slots__ = ("_terms",)

    _order_key = None

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        terms = dict(self._terms)
        for e, c in other._terms.items():
            terms[e] = terms.get(e, 0) + c
        return type(self)(terms)

    def __mul__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        terms = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = self._times(e1, e2)
                terms[e] = terms.get(e, 0) + c1 * c2
        return type(self)(terms)

    def __neg__(self):
        return type(self)({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator:
        """Terms in descending order: graded-lex (x before y) for BiPoly,
        by exponent for UniPoly."""
        for e in sorted(self._terms, key=self._order_key, reverse=True):
            yield e, self._terms[e]

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for e, c in self.terms():
            mono = self._monomial(e)
            mag = abs(c)
            body = (str(mag) if (mag != 1 or not mono) else "") + mono
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append((" - " if c < 0 else " + ") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self!s})"


class BiPoly(_SparsePoly):
    """A sparse polynomial in Z[x,y], kept in canonical form.

    Zero coefficients are never stored and exponents are nonnegative, so
    two equal polynomials always hold identical term maps.  Instances are
    immutable and hashable.
    """

    __slots__ = ()

    _order_key = staticmethod(_graded_lex_key)

    @staticmethod
    def _times(e: tuple[int, int], f: tuple[int, int]) -> tuple[int, int]:
        return (e[0] + f[0], e[1] + f[1])

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        clean: dict[tuple[int, int], int] = {}
        for (i, j), c in (terms or {}).items():
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent in term x^{i}y^{j}")
            if c:
                clean[(i, j)] = c
        object.__setattr__(self, "_terms", clean)

    # -- constructors -------------------------------------------------

    @classmethod
    def monomial(cls, i: int, j: int, coeff: int = 1) -> "BiPoly":
        return cls({(i, j): coeff})

    # -- inspection ----------------------------------------------------

    def coefficient(self, i: int, j: int) -> int:
        return self._terms.get((i, j), 0)

    def is_nonnegative(self) -> bool:
        """True iff no stored coefficient is negative.

        The zero polynomial counts as nonnegative: a zero shift story
        means the two modules are equal, and "can relax to" is taken
        reflexively.
        """
        return all(c > 0 for c in self._terms.values())

    def evaluate(self, x0: int, y0: int) -> int:
        return sum(c * x0**i * y0**j for (i, j), c in self._terms.items())

    # -- the two substitution operators ---------------------------------

    def underlying(self) -> "UniPoly":
        """Substitute y = 1 (forget the weight grading)."""
        return self._substitute(0)

    def fixed_points(self) -> "UniPoly":
        """Substitute y = 1/x; the result may be a Laurent polynomial."""
        return self._substitute(-1)

    def _substitute(self, power: int) -> "UniPoly":
        """Substitute y = x^power."""
        terms: dict[int, int] = {}
        for (i, j), c in self._terms.items():
            terms[i + power * j] = terms.get(i + power * j, 0) + c
        return UniPoly(terms)

    # -- division by the fundamental shift ------------------------------

    def divide_by_k11(self) -> "BiPoly | None":
        """Exact quotient self / K_{1,1}, or None when not divisible.

        Long division: K_{1,1} leads with -xy^2, a unit times a monomial,
        so each step cancels the leading term of what remains in Z[x,y]
        and adds only lower terms.  A leading term that xy^2 does not
        divide can never cancel, so self is then no multiple of K_{1,1}.
        """
        rest = dict(self._terms)
        quotient: dict[tuple[int, int], int] = {}
        while rest:
            i, j = max(rest, key=_graded_lex_key)
            if i < 1 or j < 2:
                return None
            c = rest.pop((i, j))
            quotient[(i - 1, j - 2)] = -c
            # rest -= -c x^(i-1) y^(j-2) K_{1,1}, past its leading term.
            for e, d in (((i, j - 1), c), ((i - 1, j - 1), c), ((i - 1, j - 2), -c)):
                d += rest.get(e, 0)
                if d:
                    rest[e] = d
                else:
                    del rest[e]
        return BiPoly(quotient)

    @staticmethod
    def _monomial(e: tuple[int, int]) -> str:
        i, j = e
        mono = ""
        if i:
            mono += "x" if i == 1 else f"x^{i}"
        if j:
            mono += "y" if j == 1 else f"y^{j}"
        return mono


class UniPoly(_SparsePoly):
    """A sparse Laurent polynomial in Z[x, 1/x].

    Negative exponents occur only as images of the fixed-point
    substitution; ordinary Poincare polynomials stay in Z[x].
    """

    __slots__ = ()

    def __init__(self, terms: Mapping[int, int] | None = None):
        clean = {e: c for e, c in (terms or {}).items() if c}
        object.__setattr__(self, "_terms", clean)

    _times = staticmethod(operator.add)

    def coefficient(self, e: int) -> int:
        return self._terms.get(e, 0)

    def evaluate(self, x0: int) -> int:
        if any(e < 0 for e in self._terms):
            raise ValueError("cannot integer-evaluate a Laurent polynomial")
        return sum(c * x0**e for e, c in self._terms.items())

    @staticmethod
    def _monomial(e: int) -> str:
        if e == 0:
            return ""
        return "x" if e == 1 else f"x^{e}"


def kronholm_poly(n: int, s: int) -> BiPoly:
    """The shift polynomial K_{n,s} = (1 - x^n y^n)(y^s - 1).

    Records a summand shifting up in weight by s while a summand n
    topological degrees higher shifts down by s.
    """
    if n <= 0 or s <= 0:
        raise ValueError(f"kronholm_poly requires n >= 1 and s >= 1, got ({n}, {s})")
    return BiPoly({(0, 0): 1, (n, n): -1}) * BiPoly({(0, s): 1, (0, 0): -1})


#: The fundamental shift polynomial K_{1,1}; it generates the ideal of
#: all shift polynomials.
K11 = kronholm_poly(1, 1)


_TERM_RE = re.compile(
    r"^(?P<coef>\d+)?(?:x(?:\^(?P<xe>\d+))?)?(?:y(?:\^(?P<ye>\d+))?)?$"
)


def parse_bipoly(text: str) -> BiPoly:
    """Parse the polynomial grammar used by the CLI and JSON encodings.

    Terms are joined by '+' or '-'; a term is [coef][x[^int]][y[^int]],
    e.g. ``x^9y^5 + 2x^7y^4 + 1``.  Spaces, tabs and '*' are ignored,
    except that they may not split a number.
    """
    if re.search(r"\d[ \t*]+\d", text):
        raise PolynomialParseError(f"a space or '*' splits a number in {text!r}")
    compact = text.replace("*", "").replace(" ", "").replace("\t", "")
    if not compact:
        raise PolynomialParseError("empty polynomial text")
    terms: dict[tuple[int, int], int] = {}
    # A sign right after '^' belongs to the exponent, so the term stays whole.
    for chunk in filter(None, re.split(r"(?<!\^)(?=[+-])", compact)):
        sign = -1 if chunk[0] == "-" else 1
        body = chunk[1:] if chunk[0] in "+-" else chunk
        if not body:
            raise PolynomialParseError(f"dangling sign in {text!r}")
        m = _TERM_RE.match(body)
        if not m or not (m.group("coef") or "x" in body or "y" in body):
            raise PolynomialParseError(f"unparseable term {chunk!r}")
        coef = int(m.group("coef") or 1) * sign
        # An exponent's digits, else 1 or 0 as the variable is there or not.
        i = int(m.group("xe") or "x" in body)
        j = int(m.group("ye") or "y" in body)
        terms[(i, j)] = terms.get((i, j), 0) + coef
    return BiPoly(terms)
