from hypothesis import strategies as st

from eqgrass.bipoly import BiPoly, K11
from eqgrass.modalg import FreeModule

exponent_pairs = st.tuples(st.integers(0, 6), st.integers(0, 6))

bipolys = st.dictionaries(
    exponent_pairs, st.integers(-9, 9), min_size=0, max_size=8
).map(BiPoly)

nonzero_bipolys = bipolys.filter(lambda f: not f.is_zero())

#: Elements of the shift ideal, built as (random polynomial) * K_{1,1}.
shift_multiples = bipolys.map(lambda f: f * K11)


@st.composite
def cell_like_modules(draw, max_gens=8, max_degree=8):
    """Multisets of bidegrees obeying the cell constraint 0 <= b <= a."""
    n = draw(st.integers(0, max_gens))
    gens = []
    for _ in range(n):
        a = draw(st.integers(0, max_degree))
        b = draw(st.integers(0, a))
        gens.append((a, b))
    return FreeModule(gens)


class PointCone:
    """The bigraded cohomology of a point, as a pair of cone predicates.

    The ring is nonzero exactly on a positive cone 0 <= i <= j (generated
    by tau at (0,1) and rho at (1,1)) and a negative cone i <= 0,
    j <= i - 2 (around theta at (0,-2)).  No bidegree lies in both.
    Only the support matters for bookkeeping: each nonzero bidegree holds
    a single copy of F_2.
    """

    ONE = (0, 0)
    RHO = (1, 1)
    TAU = (0, 1)
    THETA = (0, -2)
    THETA_OVER_RHO = (-1, -3)
    THETA_OVER_TAU = (0, -3)

    @staticmethod
    def in_positive_cone(i: int, j: int) -> bool:
        return 0 <= i <= j

    @staticmethod
    def in_negative_cone(i: int, j: int) -> bool:
        return i <= 0 and j <= i - 2

    @classmethod
    def is_nonzero(cls, i: int, j: int) -> bool:
        return cls.in_positive_cone(i, j) or cls.in_negative_cone(i, j)
