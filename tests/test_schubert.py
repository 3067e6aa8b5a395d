import math
import struct
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
from eqgrass import schubert, search


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


def _assert_fields_match_slow_oracle(k, words):
    # One call weighs every word, a field each: every field must be the
    # cell's weight under its word, so a carry into the next field fails,
    # and nothing may lie past the last field.
    p = words[0].p
    cells = enumerate_cells(k, p)
    weigher = schubert._Weigher(cells, p)
    weights = weigher.weigh([word.positions for word in words])
    width = 8 * struct.calcsize(weigher.code)
    columns = weigher.columns(len(words), weights)
    for cell, dim, packed, fields in zip(cells, weigher.dims, weights, columns):
        assert [(dim, w) for w in fields] == [slow_cell_bidegree(cell, word) for word in words]
        assert packed >> width * len(words) == 0


def _words(p, most):
    return st.lists(st.lists(st.booleans(), min_size=p, max_size=p).map(
        lambda signs: SignWord(tuple(signs))), min_size=1, max_size=most)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_word_major_weigher_matches_slow_oracle(data):
    p = data.draw(st.integers(1, 9))
    _assert_fields_match_slow_oracle(data.draw(st.integers(0, p)), data.draw(_words(p, 12)))


@given(_words(257, 4))
@settings(max_examples=10, deadline=None)
def test_word_major_weigher_past_byte_fields(words):
    # Gr_1(R^257) has 257 cells of dimension up to 256: 16-bit fields.
    assert schubert._Weigher(enumerate_cells(1, 257), 257).code == "H"
    _assert_fields_match_slow_oracle(1, words)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_least_page_of_any_cells_is_the_first(data):
    # Page 0 is the least page by tension, then canonical order.  No census
    # of p <= 12 has two pages tied at the least tension, but a subset of
    # the cells can, so only here do the tied words' keys decide.
    p = data.draw(st.integers(2, 7))
    k = data.draw(st.integers(1, p - 1))
    cells = data.draw(st.lists(st.sampled_from(enumerate_cells(k, p)), min_size=1, unique=True))
    q = data.draw(st.integers(0, p))
    page0, _ = schubert._Weigher(cells, p, q).least(lambda: None)
    pages = [FreeModule(slow_cell_bidegree(c, word) for c in cells) for word in sign_words(p, q)]
    assert page0 == min(pages, key=lambda page: (page.tension(), page.gens))


def _assert_tensions_match_slow_oracle(weigher, words, n, weights):
    # Level by level the fields count the cells with w >= v; the sum must
    # be each word's own page's tension, so a count that spills into the
    # next field or a level left out fails.
    slow = [FreeModule(slow_cell_bidegree(c, word) for c in weigher.cells) for word in words]
    assert weigher.tensions(n, weights) == [page.tension() for page in slow]


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_level_tensions_match_slow_oracle(data):
    p = data.draw(st.integers(2, 11))
    k = data.draw(st.integers(1, p - 1))
    cells = data.draw(st.lists(st.sampled_from(enumerate_cells(k, p)), min_size=1, max_size=40,
                               unique=True))
    q = data.draw(st.integers(0, p))
    weigher = schubert._Weigher(cells, p, q)
    (n, weights), = weigher.blocks()  # C(11, 5) words fit in one block
    _assert_tensions_match_slow_oracle(weigher, sign_words(p, q), n, weights)


@given(_words(257, 4))
@settings(max_examples=10, deadline=None)
def test_level_tensions_past_64_bits(words):
    # Gr_1(R^257) has 16-bit weight fields and tensions up to 2^257 - 1.
    weigher = schubert._Weigher(enumerate_cells(1, 257), 257)
    assert weigher.code == "H" and weigher.wide > 8
    weights = weigher.weigh([word.positions for word in words])
    _assert_tensions_match_slow_oracle(weigher, words, len(words), weights)


def test_level_tensions_in_both_blocks_of_a_census():
    census, words = schubert._census(2, 14, 7), sign_words(14, 7)
    blocks = [*census.blocks()]
    assert [n for n, _ in blocks] == [schubert.BLOCK_WORDS, len(words) - schubert.BLOCK_WORDS]
    for at, (n, weights) in zip((0, schubert.BLOCK_WORDS), blocks):
        _assert_tensions_match_slow_oracle(census, words[at:at + n], n, weights)


@pytest.mark.parametrize("space, by_levels", [
    ((2, 13, 6), True), ((2, 11, 5), True), ((4, 8, 3), True), ((3, 6, 3), True),
    ((1, 64, 2), True), ((1, 66, 2), False), ((2, 30, 2), False), ((1, 30, 1), False),
    ((1, 300, 1), False)])
def test_level_count_goes_where_it_was_measured_cheaper(space, by_levels):
    # Timed side by side, the level count won on the first five spaces and
    # lost on the last four: Gr_1(R^66) has tensions past 64 bits, (2,30,2)
    # wide fields times many levels, Gr_1(R^30) a level per word.
    census = schubert._census(*space)
    assert [census.by_levels(n) for n, _ in census.blocks()][:1] == [by_levels]


@pytest.mark.parametrize("by_levels", [True, False])
def test_least_breaks_a_tie_on_the_bytes_on_either_path(monkeypatch, by_levels):
    # Two pages of these cells share the least tension, and the first word
    # reaching it has the larger one: only the packed bytes pick page 0,
    # whether the block counts tension by levels or word by word.
    monkeypatch.setattr(schubert._Weigher, "by_levels", lambda self, n: by_levels)
    page0, _ = schubert._Weigher([(1, 3), (1, 4), (2, 4)], 4, 3).least(lambda: None)
    assert page0 == FreeModule([(1, 0), (2, 0), (3, 2)])


@pytest.mark.parametrize("space", [(2, 6, 3), (3, 7, 2), (2, 11, 5), (1, 130, 1)])
def test_census_counts_every_corner(space):
    # The fields give each corner {d <= i, e = d - w <= t} of the grid,
    # sampled to about 200 corners, its largest count over the words, and
    # one word's own count.  Gr_1(R^130) has weights up to 129, which a
    # byte field with no room for its guard bit would carry.
    k, p, q = space
    census, words = schubert._census(*space), sign_words(p, q)
    grid = [(i, t) for i in sorted(set(census.dims)) for t in range(max(census.dims) + 1)]
    grid = grid[:: len(grid) // 200 + 1]

    def counts(gens):
        return [sum(a <= i and a - b <= t for a, b in gens) for i, t in grid]

    weights = census.weigh([word.positions for word in words])
    most = [max(column) for column in zip(*(counts(e1_page(k, word).gens) for word in words))]
    assert census.most(len(words), weights, grid) == most
    for word in words[-3:]:
        slow = [slow_cell_bidegree(cell, word) for cell in enumerate_cells(k, p)]
        assert census.most(1, census.weigh([word.positions]), grid) == counts(slow)


# (2, 13, 6) has 147 groups of pages tied in tension, which the sorted
# generators order; at k = 0 and k = p the one cell has dimension 0; a
# cell of Gr_1(R^257) reaches dimension 256, past a byte field; the
# 3,432 words of (2, 14, 7) take two blocks.
@pytest.mark.parametrize(
    "space",
    [(2, 6, 3), (3, 7, 2), (2, 11, 5), (2, 13, 6), (0, 5, 2), (5, 5, 2), (1, 257, 1), (2, 14, 7)],
)
def test_unique_pages_match_slow_oracle(space):
    assert unique_e1_pages(*space, max_words=None) == slow_unique_pages(*space)


@pytest.mark.parametrize(
    "k, text",
    [(0, "+-+"), (3, "+-+"), (4, "--++"), (1, "+" * 299 + "-"), (1, "-+" * 150)],
    ids=["k=0", "k=p", "k=p, q=2", "p=300, last letter sign", "p=300, alternating"],
)
def test_pages_match_slow_oracle_at_the_edges(k, text):
    # On the 300-letter words cells reach dimension 299 and weight 299,
    # past a byte field.
    word = W(text)
    cells = enumerate_cells(k, word.p)
    slow = [slow_cell_bidegree(c, word) for c in cells]
    assert [cell_bidegree(c, word) for c in cells] == slow
    assert e1_page(k, word) == FreeModule(slow)


def test_sign_word_parsing():
    w = W("--+++-")
    assert (w.p, w.q) == (6, 3)
    assert str(w) == "--+++-"
    with pytest.raises(ValueError):
        W("+-x")


def test_sign_words_rejects_q_over_p():
    with pytest.raises(ValueError, match="need 0 <= q <= p, got q=4, p=3"):
        sign_words(3, 4)


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
    # The census hands each page the tension it sorted by: it must be the
    # page's own sum, and a page must equal the checked module of its gens.
    assert pages == [FreeModule(m.gens) for m in pages]
    tensions = [m.tension() for m in pages]
    assert tensions == [sum(1 << b for _, b in m.gens) for m in pages] == sorted(tensions)
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
    with pytest.raises(ValueError, match="m must be nonnegative"):
        e1_quotient_page(3, W("--+++-"), -1)


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
