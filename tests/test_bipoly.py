import operator
import re

import pytest
from hypothesis import given, settings

from eqgrass.bipoly import (
    BiPoly,
    K11,
    PolynomialParseError,
    UniPoly,
    kronholm_poly,
    parse_bipoly,
)

from conftest import PointCone, bipolys, shift_multiples

X = BiPoly.monomial(1, 0)
Y = BiPoly.monomial(0, 1)
ONE = BiPoly({(0, 0): 1})


def test_add_monomials():
    assert X + Y == parse_bipoly("x + y")


def test_mul_expands_k11():
    assert (ONE - X * Y) * (Y - ONE) == parse_bipoly("y - 1 - xy^2 + xy")
    assert K11 == parse_bipoly("y - 1 - xy^2 + xy")


@pytest.mark.parametrize("op", [operator.mul, operator.add, operator.sub], ids=["*", "+", "-"])
def test_bipoly_and_unipoly_do_not_mix(op):
    for f, g in ((X, UniPoly({1: 1})), (UniPoly({1: 1}), X)):
        with pytest.raises(TypeError):
            op(f, g)


def test_sub_self_is_zero():
    f = parse_bipoly("3x^2y + x - 7")
    assert (f - f).is_zero()
    assert f - f == BiPoly()


def test_eval_k11_at_1_2():
    assert K11.evaluate(1, 2) == -1


def test_eval_lowest_tension_page_poly():
    f = parse_bipoly(
        "x^9y^5 + x^8y^4 + 2x^7y^4 + x^6y^4 + x^5y^5 + 2x^6y^3 + 2x^5y^3"
        " + x^4y^4 + 2x^4y^2 + 2x^3y^2 + x^3y + 2x^2y + xy + 1"
    )
    assert f.evaluate(1, 2) == 201


def test_eval_zero():
    assert BiPoly().evaluate(7, 9) == 0


def test_kronholm_poly_small():
    assert kronholm_poly(1, 1) == parse_bipoly("y - 1 - xy^2 + xy")
    expected = (ONE - BiPoly.monomial(3, 3)) * (Y - ONE)
    assert kronholm_poly(3, 1) == expected


def test_kronholm_poly_rejects_bad_parameters():
    with pytest.raises(ValueError):
        kronholm_poly(0, 1)
    with pytest.raises(ValueError):
        kronholm_poly(1, 0)
    with pytest.raises(ValueError):
        kronholm_poly(-2, 3)


def test_k13_quotient():
    q = kronholm_poly(1, 3).divide_by_k11()
    assert q == parse_bipoly("1 + y + y^2")


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("s", range(1, 9))
def test_kronholm_factorization_lemmas(n, s):
    # K_{n,s} = (sum (xy)^i) K_{1,s} and K_{1,s} = (sum y^j) K_{1,1}
    xy_sum = BiPoly({(i, i): 1 for i in range(n)})
    y_sum = BiPoly({(0, j): 1 for j in range(s)})
    assert kronholm_poly(n, s) == xy_sum * kronholm_poly(1, s)
    assert kronholm_poly(1, s) == y_sum * K11
    assert kronholm_poly(n, s).divide_by_k11() == xy_sum * y_sum


def test_underlying_substitution():
    assert parse_bipoly("1 + x + x^2y^2").underlying() == UniPoly({0: 1, 1: 1, 2: 1})
    assert BiPoly().underlying().is_zero()
    for n in range(1, 7):
        for s in range(1, 7):
            assert kronholm_poly(n, s).underlying().is_zero()


def test_fixed_points_substitution():
    # the twisted projective plane: fixed set is a line plus a point
    assert parse_bipoly("1 + x + x^2y^2").fixed_points() == UniPoly({0: 2, 1: 1})
    assert ONE.fixed_points() == UniPoly({0: 1})
    for n in range(1, 7):
        for s in range(1, 7):
            assert kronholm_poly(n, s).fixed_points().is_zero()


def test_fixed_points_laurent():
    f = BiPoly.monomial(1, 3)
    assert f.fixed_points() == UniPoly({-2: 1})
    with pytest.raises(ValueError):
        f.fixed_points().evaluate(2)


def test_unipoly_coefficient_and_evaluate():
    f = parse_bipoly("3x^2y + x^2 + 1").underlying()
    assert (f.coefficient(2), f.coefficient(1), f.coefficient(0)) == (4, 0, 1)
    assert f.evaluate(2) == 17
    assert UniPoly().evaluate(5) == 0


@pytest.mark.parametrize("poly", [X, UniPoly({1: 1})], ids=["BiPoly", "UniPoly"])
def test_polynomials_are_immutable(poly):
    with pytest.raises(AttributeError, match="is immutable"):
        poly._terms = {}
    assert str(poly) == "x"


def test_divide_examples():
    assert (X * kronholm_poly(3, 1)).divide_by_k11() == X * parse_bipoly("1 + xy + x^2y^2")
    assert (Y - ONE).divide_by_k11() is None
    assert BiPoly().divide_by_k11() == BiPoly()
    # xy^2 divides the leading term -x^2y^2; the remainder 1 then fails
    assert (X * K11 + ONE).divide_by_k11() is None
    q = parse_bipoly("x^3y + y^3 + 2 + 5xy^4") - parse_bipoly("3x^2y^2 + 7x")
    assert (q * K11).divide_by_k11() == q


def test_divide_published_candidate_difference():
    # difference of the two finalist candidate answers for Gr_3(R^{6,3})
    iv = parse_bipoly(
        "x^9y^5 + x^8y^4 + 2x^7y^4 + x^6y^4 + 2x^6y^3 + 3x^5y^3 + x^4y^3"
        " + 2x^4y^2 + x^3y^3 + 2x^3y^2 + x^2y^2 + x^2y + xy + 1"
    )
    vi = parse_bipoly(
        "x^9y^5 + x^8y^4 + 2x^7y^4 + x^6y^4 + 2x^6y^3 + 3x^5y^3 + x^4y^3"
        " + 2x^4y^2 + 3x^3y^2 + 2x^2y^2 + xy + 1"
    )
    assert (vi - iv).divide_by_k11() == parse_bipoly("x^2y")


def test_is_nonnegative():
    assert parse_bipoly("x^2y + x^3y + x^3y^2").is_nonnegative()
    assert not parse_bipoly("x - x^2y").is_nonnegative()
    assert BiPoly().is_nonnegative()


def test_point_cone():
    assert PointCone.in_positive_cone(0, 0)
    assert PointCone.in_positive_cone(*PointCone.TAU)
    assert PointCone.in_positive_cone(*PointCone.RHO)
    assert PointCone.in_negative_cone(*PointCone.THETA)
    assert PointCone.in_negative_cone(*PointCone.THETA_OVER_RHO)
    assert PointCone.in_negative_cone(*PointCone.THETA_OVER_TAU)
    assert not PointCone.is_nonzero(1, 0)
    assert not PointCone.is_nonzero(0, -1)
    assert not PointCone.is_nonzero(-1, -2)
    for i in range(-6, 7):
        for j in range(-6, 7):
            assert not (
                PointCone.in_positive_cone(i, j) and PointCone.in_negative_cone(i, j)
            )


def test_canonical_form_no_zero_terms():
    f = BiPoly({(1, 1): 3, (2, 0): 0})
    assert f.coefficient(2, 0) == 0
    assert dict(f.terms()) == {(1, 1): 3}
    assert f == BiPoly({(1, 1): 2}) + BiPoly({(1, 1): 1})


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        BiPoly({(-1, 0): 1})


# -- text form ---------------------------------------------------------


def test_str_graded_lex_order():
    f = parse_bipoly("1 + 2x^2y + x^4y^4 + x^3y + xy")
    assert str(f) == "x^4y^4 + x^3y + 2x^2y + xy + 1"


def test_str_negative_terms():
    assert str(X - Y) == "x - y"
    assert str(BiPoly()) == "0"
    assert str(-X) == "-x"


def test_parse_accepts_stars_and_spaces():
    assert parse_bipoly("2*x^7 * y^4 + 1") == parse_bipoly("2x^7y^4+1")
    assert parse_bipoly("3 x^2") == parse_bipoly("3x^2")


def test_parse_rejects_garbage():
    for bad in ["", "x +", "z", "2x3y", "x^", "--", "2*3", "x^1 2", "1 + 2 3x"]:
        with pytest.raises(PolynomialParseError):
            parse_bipoly(bad)


@pytest.mark.parametrize(
    "text, term",
    [("x^-1", "x^-1"), ("x^+2", "x^+2"), ("1 + 2x^-3y", "+2x^-3y"), ("y^-1 - x", "y^-1")],
)
def test_parse_names_a_signed_exponent_whole(text, term):
    # A sign right after '^' does not start a term, so the error names
    # the term as typed, not the fragment before the sign.
    with pytest.raises(PolynomialParseError, match=f"^unparseable term {re.escape(repr(term))}$"):
        parse_bipoly(text)


@given(bipolys)
def test_parse_print_roundtrip(f):
    assert parse_bipoly(str(f)) == f


# -- algebraic laws ------------------------------------------------------


@given(bipolys, bipolys)
def test_add_commutes(f, g):
    assert f + g == g + f


@given(bipolys, bipolys)
def test_mul_commutes(f, g):
    assert f * g == g * f


@given(bipolys, bipolys, bipolys)
def test_mul_associates_and_distributes(f, g, h):
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@given(shift_multiples)
def test_members_divide_exactly(f):
    q = f.divide_by_k11()
    assert q is not None
    assert q * K11 == f


@given(shift_multiples, bipolys)
@settings(max_examples=60)
def test_divisibility_iff_both_images_vanish(member, noise):
    f = member + noise
    u_zero = f.underlying().is_zero()
    f_zero = f.fixed_points().is_zero()
    q = f.divide_by_k11()
    assert (q is not None) == (u_zero and f_zero)
    if q is not None:
        assert q * K11 == f
