import pytest

from eqgrass.bipoly import UniPoly
from eqgrass.modalg import FreeModule
from eqgrass.oracle import (
    fixed_set_poincare,
    gaussian_binomial,
    naive_solve,
    overcount_total_weight,
    validate_page,
)
from eqgrass.schubert import SignWord, e1_page


def test_gaussian_binomial_examples():
    assert gaussian_binomial(3, 1) == UniPoly({0: 1, 1: 1, 2: 1})
    assert gaussian_binomial(4, 2) == UniPoly({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})
    assert gaussian_binomial(5, 0) == UniPoly({0: 1})


def test_gaussian_binomial_symmetry():
    for p in range(0, 8):
        for k in range(0, p + 1):
            assert gaussian_binomial(p, k) == gaussian_binomial(p, p - k)


def test_fixed_set_examples():
    assert fixed_set_poincare(1, 3, 1) == UniPoly({0: 2, 1: 1})
    assert fixed_set_poincare(2, 4, 2) == UniPoly({0: 3, 1: 2, 2: 1})
    assert fixed_set_poincare(2, 5, 0) == gaussian_binomial(5, 2)


def test_fixed_set_rejects_k_over_p():
    with pytest.raises(ValueError, match="need 0 <= k, q <= p, got k=3, p=2, q=1"):
        fixed_set_poincare(3, 2, 1)


def test_fixed_set_matches_substitution():
    # the twisted projective plane again: E1 determines the fixed set
    page = e1_page(1, SignWord.from_string("++-"))
    assert page.poincare().fixed_points() == fixed_set_poincare(1, 3, 1)


def test_naive_solve_small():
    assert naive_solve(1, 3, 1) == [FreeModule([(0, 0), (1, 1), (2, 1)])]
    answers = naive_solve(2, 4, 2)
    fig_242 = FreeModule([(0, 0), (1, 1), (2, 1), (2, 2), (3, 2), (4, 2)])
    assert fig_242 in answers
    weight_zero = naive_solve(2, 4, 0)
    assert len(weight_zero) == 1
    assert weight_zero[0].total_weight() == 0


def test_validate_page_passes_for_pages():
    page = e1_page(2, SignWord.from_string("++--"))
    diag = validate_page(page, 2, 4, 2)
    assert diag.ok and not diag.messages


def test_validate_page_catches_wrong_module():
    diag = validate_page(FreeModule([(0, 0)]), 2, 4, 2)
    assert not diag.underlying_ok
    assert not diag.ok
    assert any("underlying" in m for m in diag.messages)


def test_validate_page_weight_skip():
    bad_weight = FreeModule([(0, 0), (1, 1), (2, 2), (2, 1), (3, 1), (4, 4)])
    full = validate_page(bad_weight, 2, 4, 2)
    assert full.weight_ok is False
    assert not full.ok


def test_validate_known_table():
    from eqgrass.known import KNOWN_TABLES

    diag = validate_page(KNOWN_TABLES[(3, 6, 2)], 3, 6, 2)
    assert diag.ok


def test_overcount_identity_small():
    for p in range(2, 7):
        for k in range(1, p):
            for q in range(0, p + 1):
                lhs, rhs = overcount_total_weight(p, k, q)
                assert lhs == rhs, (p, k, q)
