import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from eqgrass.bipoly import parse_bipoly
from eqgrass.modalg import FreeModule
from eqgrass.schubert import (
    BudgetExceededError,
    SignWord,
    cell_bidegree,
    check_parameters,
    e1_page,
    e1_quotient_page,
    enumerate_cells,
    normalize_parameters,
    sign_words,
    total_weight_formula,
    unique_e1_pages,
)
from eqgrass import search


def W(text):
    return SignWord.from_string(text)


def slow_cell_bidegree(cell, word):
    """Reference for the census: walk each row's columns one at a time."""
    signs = word.signs
    pivot_set = set(cell)
    dim = 0
    weight = 0
    for c in cell:
        pivot_sign = signs[c - 1]
        for j in range(1, c):
            if j in pivot_set:
                continue
            dim += 1
            if signs[j - 1] != pivot_sign:
                weight += 1
    return (dim, weight)


def slow_unique_pages(k, p, q):
    pages = {
        FreeModule(slow_cell_bidegree(c, w) for c in enumerate_cells(k, p))
        for w in sign_words(p, q)
    }
    return sorted(pages, key=lambda m: (m.tension(), m.gens))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_census_matches_slow_oracle(data):
    p = data.draw(st.integers(1, 9))
    k = data.draw(st.integers(0, p))
    q = data.draw(st.integers(0, p))
    word = data.draw(st.sampled_from(sign_words(p, q)))
    cells = enumerate_cells(k, p)
    slow = [slow_cell_bidegree(c, word) for c in cells]
    assert [cell_bidegree(c, word) for c in cells] == slow
    assert e1_page(k, word) == FreeModule(slow)
    m = data.draw(st.integers(0, p - 1))
    kept = [g for c, g in zip(cells, slow) if c and c[-1] > m]
    assert e1_quotient_page(k, word, m) == FreeModule(kept)


@pytest.mark.parametrize("space", [(2, 6, 3), (3, 7, 2), (2, 11, 5)])
def test_unique_pages_match_slow_oracle(space):
    assert unique_e1_pages(*space) == slow_unique_pages(*space)


def test_sign_word_parsing():
    w = W("--+++-")
    assert (w.p, w.q) == (6, 3)
    assert str(w) == "--+++-"
    with pytest.raises(ValueError):
        W("+-x")


def test_enumerate_cells_small():
    assert enumerate_cells(1, 3) == [(1,), (2,), (3,)]
    assert len(enumerate_cells(2, 4)) == 6
    assert (2, 5, 7) in enumerate_cells(3, 7)
    with pytest.raises(ValueError):
        enumerate_cells(4, 3)


def test_cell_dimension_is_diagram_size():
    dims = []
    for cell in enumerate_cells(3, 7):
        boxes = sum(c - i for i, c in enumerate(cell, start=1))
        dims.append(cell_bidegree(cell, W("+" * 7))[0])
        assert dims[-1] == boxes
    assert max(dims) == 3 * 4


def test_cell_bidegree_published_example():
    # the eight-dimensional cell with pivots 2, 5, 7 and three sign entries
    assert cell_bidegree((2, 5, 7), W("--++-++")) == (8, 3)


def test_cell_bidegree_small_cases():
    assert cell_bidegree((3,), W("++-")) == (2, 2)
    for k, p in [(1, 1), (2, 2), (3, 5)]:
        cell = tuple(range(1, k + 1))
        for word in sign_words(p, p // 2):
            assert cell_bidegree(cell, word) == (0, 0)


def test_cell_bidegree_word_too_short():
    with pytest.raises(ValueError):
        cell_bidegree((2, 5, 7), W("++-"))


@pytest.mark.parametrize("pivots", [(2, 2), (3, 1), (0,), (True, 2), (1.0,)])
def test_cell_bidegree_rejects_non_cells(pivots):
    with pytest.raises(ValueError, match="pivot"):
        cell_bidegree(pivots, W("+-+"))


def test_e1_page_examples():
    assert e1_page(1, W("++-")) == FreeModule([(0, 0), (1, 0), (2, 2)])
    assert e1_page(2, W("++--")) == FreeModule(
        [(0, 0), (1, 1), (2, 1), (2, 1), (3, 1), (4, 4)]
    )
    assert e1_page(1, W("-+-")) == FreeModule([(0, 0), (1, 1), (2, 1)])


@given(st.data())
@settings(max_examples=60)
def test_cell_bidegrees_obey_cone_constraint(data):
    p = data.draw(st.integers(1, 7))
    k = data.draw(st.integers(0, p))
    q = data.draw(st.integers(0, p))
    word = data.draw(st.sampled_from(sign_words(p, q)))
    for a, b in e1_page(k, word):
        assert 0 <= b <= a


def test_unique_pages_counts():
    assert len(unique_e1_pages(3, 6, 3)) == 6
    assert len(unique_e1_pages(1, 3, 1)) == 2
    only = unique_e1_pages(2, 5, 0)
    assert len(only) == 1
    assert only[0].total_weight() == 0


def test_unique_pages_sorted_by_tension():
    pages = unique_e1_pages(3, 6, 3)
    tensions = [m.tension() for m in pages]
    assert tensions == sorted(tensions)
    assert tensions[0] == 201


def test_unique_pages_word_budget():
    with pytest.raises(BudgetExceededError):
        unique_e1_pages(3, 6, 3, max_words=19)
    assert len(unique_e1_pages(3, 6, 3, max_words=20)) == 6


def test_word_budget_fires_before_allocation():
    # C(18, 9) = 48620 words would take about 12 MiB to build.
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="needs 48620 sign words"):
            unique_e1_pages(2, 18, 9, max_words=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_census_iterates_words_lazily():
    # C(16, 8) = 12870 words; building them as a list alone peaks past
    # 2.5 MiB, while the 1430 distinct pages share their generators.
    tracemalloc.start()
    try:
        pages = unique_e1_pages(1, 16, 8, max_words=None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pages) == 1430
    assert peak < 2.5 * (1 << 20)


def test_quotient_page_cell_count():
    w = W("--+++-")
    quot = e1_quotient_page(3, w, 5)
    assert len(quot) == math.comb(6, 3) - math.comb(5, 3)
    assert len(e1_quotient_page(3, w, 3)) == math.comb(6, 3) - 1  # only {1,2,3} inside


def test_quotient_page_rejects_bad_prefix():
    with pytest.raises(ValueError):
        e1_quotient_page(3, W("--+++-"), 6)


@given(st.data())
@settings(max_examples=40)
def test_quotient_partitions_the_page(data):
    p = data.draw(st.integers(2, 7))
    k = data.draw(st.integers(1, p - 1))
    q = data.draw(st.integers(0, p))
    word = data.draw(st.sampled_from(sign_words(p, q)))
    m = data.draw(st.integers(k, p - 1))
    whole = e1_page(k, word).poincare()
    sub = e1_page(k, SignWord(word.signs[:m])).poincare()
    quot = e1_quotient_page(k, word, m).poincare()
    assert whole == sub + quot


def test_total_weight_formula_values():
    assert total_weight_formula(1, 3, 2) == 2
    assert total_weight_formula(1, 3, 1) == 2
    assert total_weight_formula(2, 4, 2) == 8
    assert total_weight_formula(3, 6, 3) == 54
    with pytest.raises(ValueError):
        total_weight_formula(0, 3, 1)
    with pytest.raises(ValueError):
        total_weight_formula(1, 3, 4)


def test_check_parameters_wording():
    check_parameters(1, 2, 0)
    check_parameters(1, 2, 2)
    with pytest.raises(ValueError) as k_info:
        check_parameters(4, 3, 1)
    assert str(k_info.value) == "k=4 out of range: need 1 <= k <= p-1 with p=3"
    with pytest.raises(ValueError) as q_info:
        check_parameters(1, 3, -1)
    assert str(q_info.value) == "q=-1 out of range: need 0 <= q <= p with p=3"


def test_budget_error_has_one_home():
    assert search.BudgetExceededError is BudgetExceededError


def test_total_weight_independent_of_word_small():
    # exhaustive up to p = 6 here; the acceptance suite pushes to p = 8
    for p in range(2, 7):
        for k in range(1, p):
            for q in range(0, p + 1):
                expected = total_weight_formula(k, p, q)
                for word in sign_words(p, q):
                    assert e1_page(k, word).total_weight() == expected


def test_underlying_image_is_classical_poincare():
    from eqgrass.oracle import gaussian_binomial

    for word in sign_words(4, 2):
        assert e1_page(2, word).poincare().underlying() == gaussian_binomial(4, 2)


def test_fixed_image_matches_fixed_set():
    from eqgrass.oracle import fixed_set_poincare

    for word in sign_words(5, 2):
        got = e1_page(2, word).poincare().fixed_points()
        assert got == fixed_set_poincare(2, 5, 2)


def test_normalize_parameters():
    assert normalize_parameters(3, 5, 4) == (2, 5, 1)
    assert normalize_parameters(1, 4, 2) == (1, 4, 2)


def test_duality_preserves_unique_page_multisets():
    # complementing every sign letter leaves all weights unchanged
    assert unique_e1_pages(2, 6, 2) == unique_e1_pages(2, 6, 4)
