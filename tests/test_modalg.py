from functools import cache
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from eqgrass.bipoly import BiPoly, K11, parse_bipoly
from eqgrass.modalg import (
    FreeModule,
    module_from_poly,
    render_rank_table,
)
from eqgrass.schubert import (
    SignWord,
    cell_bidegree,
    e1_page,
    enumerate_cells,
    unique_e1_pages,
)
from eqgrass.search import candidate_outcomes, possible_differentials

from conftest import cell_like_modules

RP2_E1 = FreeModule([(0, 0), (1, 0), (2, 2)])
RP2_H = FreeModule([(0, 0), (1, 1), (2, 1)])
GR242_E1 = FreeModule([(0, 0), (1, 1), (2, 1), (2, 1), (3, 1), (4, 4)])
GR242_H = FreeModule([(0, 0), (1, 1), (2, 1), (2, 2), (3, 2), (4, 2)])


def test_poincare_examples():
    assert RP2_E1.poincare() == parse_bipoly("1 + x + x^2y^2")
    assert GR242_E1.poincare() == parse_bipoly("x^4y^4 + x^3y + 2x^2y + xy + 1")
    assert FreeModule().poincare() == BiPoly()


def test_module_from_poly():
    assert module_from_poly(parse_bipoly("1 + xy + x^2y")) == FreeModule(
        [(0, 0), (1, 1), (2, 1)]
    )
    assert module_from_poly(parse_bipoly("3x^2y^2")) == FreeModule([(2, 2)] * 3)
    with pytest.raises(ValueError, match="x\\^0y\\^1"):
        module_from_poly(parse_bipoly("x - y"))


@given(cell_like_modules())
def test_module_from_poly_inverts_poincare(m):
    assert module_from_poly(m.poincare()) == m


def test_tension():
    assert FreeModule([(0, 0)]).tension() == 1
    assert FreeModule([(0, 0), (1, 1), (2, 1)]).tension() == 5
    assert RP2_E1.tension() == 1 + 1 + 4


def test_total_weight():
    assert RP2_E1.total_weight() == 2
    assert GR242_E1.total_weight() == 8
    assert FreeModule().total_weight() == 0


def test_shift_story_examples():
    assert RP2_E1.shift_story(RP2_H) == parse_bipoly("x")
    assert GR242_E1.shift_story(GR242_H) == parse_bipoly("x^2y + x^3y + x^3y^2")
    assert RP2_E1.shift_story(RP2_E1) == BiPoly()


def test_can_relax_to():
    assert RP2_E1.can_relax_to(RP2_H)
    assert not RP2_H.can_relax_to(RP2_E1)  # story would be -x
    assert RP2_H.can_relax_to(RP2_H)
    # unrelated modules: no story at all
    assert RP2_E1.shift_story(FreeModule([(0, 0), (1, 0), (2, 1)])) is None
    # equal margins and lower tension, but one corner count goes negative
    a = FreeModule([(1, 0), (2, 1), (3, 1), (3, 3)])
    b = FreeModule([(1, 1), (2, 0), (3, 2), (3, 2)])
    assert a.shift_story(b) == parse_bipoly("x^2y - x^2 + x")
    assert b.tension() < a.tension()
    assert not a.can_relax_to(b)


def _relaxes_by_division(a, b):
    """The slow oracle: equal generators, or a lower tension and a shift
    story that exists and is nonnegative."""
    if a.gens == b.gens:
        return True
    if b.tension() >= a.tension():
        return False
    story = a.shift_story(b)
    return story is not None and story.is_nonnegative()


@cache
def _pages_and_closure(space):
    pages = unique_e1_pages(*space)
    return tuple(pages) + tuple(candidate_outcomes(pages[0]))


def _pairs_from(space):
    pool = st.sampled_from(_pages_and_closure(space))
    return st.tuples(pool, pool)


@given(st.sampled_from([(2, 6, 3), (3, 6, 3), (2, 9, 4)]).flatmap(_pairs_from))
@settings(max_examples=300)
def test_relaxation_matches_division_on_closures(pair):
    a, b = pair
    assert a.can_relax_to(b) == _relaxes_by_division(a, b)


# weights may exceed degrees: hand-entered modules need not be cell-like
hand_bidegrees = st.tuples(st.integers(0, 5), st.integers(0, 7))


@st.composite
def hand_built_pairs(draw):
    """Two multisets: unrelated; with the same degrees (equal underlying
    polynomials) and random weights; with the same a - b (equal
    fixed-point polynomials) and random degrees; or one reached from the
    other by legal shifts.  Either may come first."""
    a = FreeModule(draw(st.lists(hand_bidegrees, max_size=6)))
    kind = draw(st.sampled_from(["unrelated", "same_degrees", "same_e", "shifted"]))
    if kind == "unrelated":
        b = FreeModule(draw(st.lists(hand_bidegrees, max_size=6)))
    elif kind == "same_degrees":
        b = FreeModule((deg, draw(st.integers(0, 7))) for deg, _ in a)
    elif kind == "same_e":
        degrees = [draw(st.integers(max(deg - wt, 0), 7)) for deg, wt in a]
        b = FreeModule((d, d - deg + wt) for d, (deg, wt) in zip(degrees, a))
    else:
        b = a
        for _ in range(draw(st.integers(1, 3))):
            moves = possible_differentials(b)
            if not moves:
                break
            b = b.apply_shift(draw(st.sampled_from(moves)))
    return (b, a) if draw(st.booleans()) else (a, b)


@given(hand_built_pairs())
@settings(max_examples=300)
def test_relaxation_matches_division_on_hand_built(pair):
    a, b = pair
    assert a.can_relax_to(b) == _relaxes_by_division(a, b)


def test_apply_shift_examples():
    m = FreeModule([(1, 0), (2, 2)])
    assert m.apply_shift(((1, 0), (2, 2))) == FreeModule(
        [(1, 1), (2, 1)]
    )
    m = FreeModule([(0, 0), (1, 4)])
    assert m.apply_shift(((0, 0), (1, 4))) == FreeModule(
        [(0, 3), (1, 1)]
    )
    m = FreeModule([(1, 0), (4, 4)])
    assert m.apply_shift(((1, 0), (4, 4))) == FreeModule(
        [(1, 1), (4, 3)]
    )


def test_apply_shift_poincare_delta_is_kronholm():
    from eqgrass.bipoly import kronholm_poly

    m = GR242_E1
    move = ((3, 1), (4, 4))
    (a, b), (c, d) = move
    n, s = c - a, (d - b) - (c - a)
    assert (n, s) == (1, 2)
    shifted = m.apply_shift(move)
    delta = shifted.poincare() - m.poincare()
    assert delta == BiPoly.monomial(3, 1) * kronholm_poly(n, s)


def test_apply_shift_accepts_list_ends():
    # a move read back from JSON has lists for its ends
    m = FreeModule([(1, 0), (2, 2)])
    assert m.apply_shift([[1, 0], [2, 2]]) == m.apply_shift(((1, 0), (2, 2)))
    with pytest.raises(ValueError, match=r"no generator at \(0, 0\)"):
        m.apply_shift([[0, 0], [2, 2]])
    with pytest.raises(ValueError, match="illegal shift"):
        m.apply_shift([[2, 2], [1, 0]])


def test_apply_shift_rejections():
    m = FreeModule([(1, 0), (2, 2)])
    with pytest.raises(ValueError, match="no generator"):
        m.apply_shift(((0, 0), (2, 2)))
    with pytest.raises(ValueError, match=r"no generator at \(3, 3\)"):
        m.apply_shift(((1, 0), (3, 3)))
    with pytest.raises(ValueError, match="illegal shift"):
        m.apply_shift(((2, 2), (1, 0)))
    # n >= 1 but s = 0
    m2 = FreeModule([(1, 0), (2, 1)])
    with pytest.raises(ValueError, match="illegal shift"):
        m2.apply_shift(((1, 0), (2, 1)))


def _legal_moves(m):
    distinct = sorted(set(m.gens))
    for src in distinct:
        for tgt in distinct:
            n = tgt[0] - src[0]
            s = (tgt[1] - src[1]) - n
            if n >= 1 and s >= 1:
                yield src, tgt


@given(cell_like_modules(max_gens=7))
@settings(max_examples=80)
def test_move_invariants(m):
    poly = m.poincare()
    for move in _legal_moves(m):
        after = m.apply_shift(move)
        assert after.tension() < m.tension()
        assert after.total_weight() == m.total_weight()
        assert len(after) == len(m)
        assert after.poincare().underlying() == poly.underlying()
        assert after.poincare().fixed_points() == poly.fixed_points()
        assert m.can_relax_to(after)


@given(cell_like_modules(max_gens=6))
@settings(max_examples=40)
def test_relaxation_along_random_chains(m):
    # follow up to three chained moves; the start must relax to every stop
    current = m
    for _ in range(3):
        moves = list(_legal_moves(current))
        if not moves:
            break
        current = current.apply_shift(moves[0])
        assert m.can_relax_to(current)


@given(cell_like_modules(max_gens=6), cell_like_modules(max_gens=6))
@settings(max_examples=60)
def test_relaxation_antisymmetric(a, b):
    if a.can_relax_to(b) and b.can_relax_to(a):
        assert a == b


def test_relaxation_transitive_on_chain():
    a = GR242_E1
    b = a.apply_shift(((2, 1), (4, 4)))
    c = b.apply_shift(((3, 1), (4, 3)))
    assert a.can_relax_to(b) and b.can_relax_to(c) and a.can_relax_to(c)


def test_canonical_ordering_and_hash():
    m1 = FreeModule([(2, 1), (0, 0), (2, 1)])
    m2 = FreeModule([(0, 0), (2, 1), (2, 1)])
    assert m1 == m2
    assert hash(m1) == hash(m2)
    assert m1.gens == ((0, 0), (2, 1), (2, 1))


def test_direct_sum():
    assert RP2_E1 + FreeModule([(5, 5)]) == FreeModule([(0, 0), (1, 0), (2, 2), (5, 5)])


def test_negative_weight_rejected():
    with pytest.raises(ValueError):
        FreeModule([(1, -1)])


def test_json_roundtrip():
    data = GR242_E1.to_json()
    assert data == {"generators": [[0, 0, 1], [1, 1, 1], [2, 1, 2], [3, 1, 1], [4, 4, 1]]}
    assert FreeModule.from_json(data) == GR242_E1
    with pytest.raises(ValueError):
        FreeModule.from_json({"gens": []})


@pytest.mark.parametrize(
    "generators",
    [
        [None],
        5,
        None,
        [[0, 0, 1.5]],
        [[0, 0]],
        [[0, 0, 1, 1]],
        [["0", 0, 1]],
        [[0, 0, True]],
        [[0, 0, 1], [1, 1.0, 1]],
        [[1, 1, 2], [1, 1, -1]],
    ],
    ids=repr,
)
def test_from_json_rejects_malformed_generators(generators):
    with pytest.raises(ValueError, match="generator"):
        FreeModule.from_json({"generators": generators})


@pytest.mark.parametrize(
    "gens",
    [[(1.5, 0)], [(True, 0)], [(0, 2.0)], [(0, False)], [(0, 0), ("1", 1)]],
    ids=repr,
)
def test_init_rejects_entries_that_are_not_ints(gens):
    with pytest.raises(ValueError, match="not a pair of ints"):
        FreeModule(gens)


@pytest.mark.parametrize(
    "gens, message",
    [
        ([(0, 0, 1)], "too many values to unpack"),
        ([(0,)], "not enough values to unpack"),
        ([(0, 0), (1, 1, 1)], "too many values to unpack"),
        ([(0, 0), (True, 0)], "bidegree (True, 0) is not a pair of ints"),
        ([(1.5, 0), (0, -1)], "bidegree (1.5, 0) is not a pair of ints"),
        ([(0, 0), (2, -1), (-3, 0)], "bidegree (2, -1) has a negative entry"),
    ],
    ids=repr,
)
def test_init_error_messages(gens, message):
    # The bulk check falls back to the per-entry loop to name the first
    # bad entry, with the messages the loop has always raised.
    with pytest.raises(ValueError) as info:
        FreeModule(gens)
    assert message in str(info.value)


@pytest.mark.parametrize("gens", [[5], [(0, 0), None]], ids=repr)
def test_init_rejects_entries_that_are_not_iterable(gens):
    with pytest.raises(TypeError):
        FreeModule(gens)


class _Named(NamedTuple):
    a: int
    b: int


def test_init_accepts_iterators_and_lists():
    expected = ((0, 0), (1, 1), (2, 1))
    for gens in [
        iter([(2, 1), (0, 0), (1, 1)]),
        ((a, b) for a, b in [(1, 1), (2, 1), (0, 0)]),
        [[2, 1], [1, 1], [0, 0]],
        [iter([1, 1]), (2, 1), _Named(0, 0)],
    ]:
        m = FreeModule(gens)
        assert m.gens == expected
        assert all(type(g) is tuple for g in m.gens)


def test_init_shares_tuple_generators():
    m = FreeModule([(3, 1), (0, 0), (2, 2), (2, 2)])
    again = FreeModule(m.gens)
    assert all(again.gens[i] is m.gens[i] for i in range(len(m)))
    assert all(g is h for g, h in zip((m + m).gens[::2], m.gens))


@pytest.mark.parametrize("count", [1.5, 2.0, True], ids=repr)
def test_from_counts_rejects_multiplicities_that_are_not_ints(count):
    with pytest.raises(ValueError, match="not an int"):
        FreeModule.from_counts({(0, 0): count})


def test_from_counts_rejects_negative_multiplicities():
    with pytest.raises(ValueError, match=r"negative multiplicity for \(0, 0\)"):
        FreeModule.from_counts({(0, 0): -1})


def test_generators_are_plain_tuples():
    word = SignWord.from_string("++--")
    pages = unique_e1_pages(2, 4, 2)
    built = [
        e1_page(2, word),
        *pages,
        *candidate_outcomes(pages[0]),
        FreeModule.from_counts({(0, 0): 1, (2, 1): 2}),
        FreeModule.from_json(GR242_E1.to_json()),
        module_from_poly(parse_bipoly("1 + xy + 2x^2y")),
        GR242_E1.apply_shift(possible_differentials(GR242_E1)[0]),
        GR242_E1.apply_shift(((3, 1), (4, 4))),
        RP2_E1 + RP2_H,
    ]
    assert all(type(g) is tuple for m in built for g in m.gens)
    assert all(
        type(cell_bidegree(cell, word)) is tuple for cell in enumerate_cells(2, 4)
    )
    assert all(type(key) is tuple for key in GR242_E1.counts())
    moves = possible_differentials(GR242_E1)
    assert all(type(d) is tuple for d in moves)
    assert all(type(end) is tuple for d in moves for end in d)
    assert all(type(cell) is tuple for cell in enumerate_cells(2, 4))


def test_rank_table_fig_242():
    table = render_rank_table(GR242_H)
    assert table == (
        "2 |     1 1 1\n"
        "1 |   1 1\n"
        "0 | 1\n"
        "--+----------\n"
        "  | 0 1 2 3 4"
    )


def test_rank_table_empty():
    assert render_rank_table(FreeModule()) == ""


def test_rank_table_362_ranks():
    from eqgrass.known import KNOWN_TABLES

    table = render_rank_table(KNOWN_TABLES[(3, 6, 2)])
    # the thirteen published ranks, read off row by row
    assert table.split("\n")[0].endswith("1 1 1")
    assert "2 3 1" in table
    assert "1 3 3 1" in table
