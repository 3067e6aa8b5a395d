"""Published cohomology tables used as regression fixtures.

Each entry gives the rank table of H(Gr_k(R^{p,q})) as a map from
bidegree to the number of free summands there.  The solver must
reproduce every one of these as its unique survivor, except (3, 6, 3):
there the search narrows to six candidates and the subspace refinement
to two, and the listed table records the final published answer, whose
last elimination step (a comparison against an infinite Grassmannian)
is outside this package's scope.
"""

from __future__ import annotations

from .bipoly import BiPoly, parse_bipoly
from .modalg import FreeModule


_mod = FreeModule.from_counts


#: Unique answers the solver must reproduce exactly, keyed by (k, p, q).
KNOWN_TABLES: dict[tuple[int, int, int], FreeModule] = {
    (3, 6, 2): _mod({
        (9, 4): 1, (8, 4): 1, (7, 4): 1, (7, 3): 1, (6, 3): 3, (5, 3): 2,
        (5, 2): 1, (4, 2): 3, (3, 2): 3, (2, 2): 1, (2, 1): 1, (1, 1): 1,
        (0, 0): 1,
    }),
    (2, 6, 3): _mod({
        (8, 4): 1, (7, 4): 1, (6, 4): 1, (6, 3): 1, (5, 3): 2, (4, 3): 1,
        (4, 2): 2, (3, 2): 2, (2, 2): 1, (2, 1): 1, (1, 1): 1, (0, 0): 1,
    }),
    (2, 7, 3): _mod({
        (10, 5): 1, (9, 5): 1, (8, 4): 2, (7, 4): 2, (6, 4): 1, (6, 3): 2,
        (5, 3): 3, (4, 3): 1, (4, 2): 2, (3, 2): 2, (2, 2): 1, (2, 1): 1,
        (1, 1): 1, (0, 0): 1,
    }),
    (2, 8, 3): _mod({
        (12, 6): 1, (11, 5): 1, (10, 5): 2, (9, 5): 1, (9, 4): 1, (8, 4): 3,
        (7, 4): 2, (7, 3): 1, (6, 4): 1, (6, 3): 3, (5, 3): 3, (4, 3): 1,
        (4, 2): 2, (3, 2): 2, (2, 2): 1, (2, 1): 1, (1, 1): 1, (0, 0): 1,
    }),
    (2, 8, 4): _mod({
        (12, 6): 1, (11, 6): 1, (10, 6): 1, (10, 5): 1, (9, 5): 2, (8, 5): 1,
        (8, 4): 2, (7, 4): 3, (6, 4): 2, (6, 3): 2, (5, 3): 3, (4, 3): 1,
        (4, 2): 2, (3, 2): 2, (2, 2): 1, (2, 1): 1, (1, 1): 1, (0, 0): 1,
    }),
    (2, 9, 4): _mod({
        (14, 7): 1, (13, 7): 1, (12, 6): 2, (11, 6): 2, (10, 6): 1,
        (10, 5): 2, (9, 5): 3, (8, 5): 1, (8, 4): 3, (7, 4): 4, (6, 4): 2,
        (6, 3): 2, (5, 3): 3, (4, 3): 1, (4, 2): 2, (3, 2): 2, (2, 2): 1,
        (2, 1): 1, (1, 1): 1, (0, 0): 1,
    }),
    (2, 10, 5): _mod({
        (16, 8): 1, (15, 8): 1, (14, 8): 1, (14, 7): 1, (13, 7): 2,
        (12, 7): 1, (12, 6): 2, (11, 6): 3, (10, 6): 2, (10, 5): 2,
        (9, 5): 4, (8, 5): 2, (8, 4): 3, (7, 4): 4, (6, 4): 2, (6, 3): 2,
        (5, 3): 3, (4, 3): 1, (4, 2): 2, (3, 2): 2, (2, 2): 1, (2, 1): 1,
        (1, 1): 1, (0, 0): 1,
    }),
    (2, 11, 5): _mod({
        (18, 9): 1, (17, 9): 1, (16, 8): 2, (15, 8): 2, (14, 8): 1,
        (14, 7): 2, (13, 7): 3, (12, 7): 1, (12, 6): 3, (11, 6): 4,
        (10, 6): 2, (10, 5): 3, (9, 5): 5, (8, 5): 2, (8, 4): 3, (7, 4): 4,
        (6, 4): 2, (6, 3): 2, (5, 3): 3, (4, 3): 1, (4, 2): 2, (3, 2): 2,
        (2, 2): 1, (2, 1): 1, (1, 1): 1, (0, 0): 1,
    }),
    (2, 12, 6): _mod({
        (20, 10): 1, (19, 10): 1, (18, 10): 1, (18, 9): 1, (17, 9): 2,
        (16, 9): 1, (16, 8): 2, (15, 8): 3, (14, 8): 2, (14, 7): 2,
        (13, 7): 4, (12, 7): 2, (12, 6): 3, (11, 6): 5, (10, 6): 3,
        (10, 5): 3, (9, 5): 5, (8, 5): 2, (8, 4): 3, (7, 4): 4, (6, 4): 2,
        (6, 3): 2, (5, 3): 3, (4, 3): 1, (4, 2): 2, (3, 2): 2, (2, 2): 1,
        (2, 1): 1, (1, 1): 1, (0, 0): 1,
    }),
    (2, 13, 6): _mod({
        (22, 11): 1, (21, 11): 1, (20, 10): 2, (19, 10): 2, (18, 10): 1,
        (18, 9): 2, (17, 9): 3, (16, 9): 1, (16, 8): 3, (15, 8): 4,
        (14, 8): 2, (14, 7): 3, (13, 7): 5, (12, 7): 2, (12, 6): 4,
        (11, 6): 6, (10, 6): 3, (10, 5): 3, (9, 5): 5, (8, 5): 2, (8, 4): 3,
        (7, 4): 4, (6, 4): 2, (6, 3): 2, (5, 3): 3, (4, 3): 1, (4, 2): 2,
        (3, 2): 2, (2, 2): 1, (2, 1): 1, (1, 1): 1, (0, 0): 1,
    }),
}


#: The six candidate answers for Gr_3(R^{6,3}) the search alone cannot
#: separate, in the published order (i) through (vi).
SIX_CANDIDATE_POLYS: list[str] = [
    "x^9y^5 + x^8y^4 + 2x^7y^4 + x^6y^4 + x^5y^5 + 2x^6y^3 + 2x^5y^3"
    " + 3x^4y^2 + 3x^3y^2 + x^2y^2 + x^2y + xy + 1",
    "x^9y^5 + x^8y^4 + 2x^7y^4 + x^6y^4 + 2x^6y^3 + 3x^5y^3 + x^4y^4"
    " + 2x^4y^2 + 3x^3y^2 + x^2y^2 + x^2y + xy + 1",
    "x^9y^5 + x^8y^4 + 2x^7y^4 + x^6y^4 + 2x^6y^3 + x^5y^4 + 2x^5y^3"
    " + 3x^4y^2 + x^3y^3 + 2x^3y^2 + x^2y^2 + x^2y + xy + 1",
    "x^9y^5 + x^8y^4 + 2x^7y^4 + x^6y^4 + 2x^6y^3 + 3x^5y^3 + x^4y^3"
    " + 2x^4y^2 + x^3y^3 + 2x^3y^2 + x^2y^2 + x^2y + xy + 1",
    "x^9y^5 + x^8y^4 + 2x^7y^4 + x^6y^4 + 2x^6y^3 + x^5y^4 + 2x^5y^3"
    " + 3x^4y^2 + 3x^3y^2 + 2x^2y^2 + xy + 1",
    "x^9y^5 + x^8y^4 + 2x^7y^4 + x^6y^4 + 2x^6y^3 + 3x^5y^3 + x^4y^3"
    " + 2x^4y^2 + 3x^3y^2 + 2x^2y^2 + xy + 1",
]


def six_candidates() -> list[BiPoly]:
    return [parse_bipoly(s) for s in SIX_CANDIDATE_POLYS]


#: The published answer for Gr_3(R^{6,3}): candidate (iv) of the six.
#: The solver plus subspace refinement narrows to {(iv), (vi)}; picking
#: (iv) requires the out-of-scope comparison with an infinite
#: Grassmannian, so this table is a documented fixture only.
FINAL_363_TABLE: FreeModule = _mod({
    (9, 5): 1, (8, 4): 1, (7, 4): 2, (6, 4): 1, (6, 3): 2, (5, 3): 3,
    (4, 3): 1, (4, 2): 2, (3, 3): 1, (3, 2): 2, (2, 2): 1, (2, 1): 1,
    (1, 1): 1, (0, 0): 1,
})
