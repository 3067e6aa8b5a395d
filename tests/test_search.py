import dataclasses
import hashlib
import math
import time
import tracemalloc
from collections import deque
from functools import cache, reduce
from itertools import combinations, combinations_with_replacement, count, permutations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from eqgrass.bipoly import BiPoly, parse_bipoly
from eqgrass.modalg import FreeModule, shift_result
from eqgrass.oracle import closure_oracle
from eqgrass import cli, schubert, search
from eqgrass.schubert import BLOCK_WORDS, SignWord, e1_page, sign_words, unique_e1_pages
from eqgrass.cli import EXIT_BUDGET, run
from eqgrass.search import (
    Budget,
    BudgetExceededError,
    candidate_outcomes,
    possible_differentials,
    reduce_pages,
    solve,
    subspace_filter,
)

from conftest import PointCone, cell_like_modules

RP2_E1 = FreeModule([(0, 0), (1, 0), (2, 2)])
RP2_H = FreeModule([(0, 0), (1, 1), (2, 1)])


def brute_force_differentials(module):
    """Independent oracle: try every ordered pair of generator bidegrees
    against the negative-cone support rule."""
    found = set()
    for a, b in module.gens:
        for c, d in module.gens:
            if PointCone.in_negative_cone(a + 1 - c, b - d):
                found.add(((a, b), (c, d)))
    return found


def test_possible_differentials_rp2():
    pairs = possible_differentials(RP2_E1)
    assert pairs == [((1, 0), (2, 2))]
    assert brute_force_differentials(RP2_E1) == {((1, 0), (2, 2))}


def test_possible_differentials_relaxed_page_empty():
    assert possible_differentials(RP2_H) == []
    assert brute_force_differentials(RP2_H) == set()


def test_possible_differentials_single_big_shift():
    m = FreeModule([(0, 0), (1, 4)])
    pairs = possible_differentials(m)
    assert len(pairs) == 1
    (a, b), (c, d) = pairs[0]
    assert (d - b) - (c - a) == 3


@given(cell_like_modules(max_gens=7))
@settings(max_examples=80)
def test_differentials_match_cone_oracle(m):
    got = set(possible_differentials(m))
    assert got == brute_force_differentials(m)


def test_candidates_rp2():
    cands = candidate_outcomes(RP2_E1)
    assert sorted(cands) == sorted([RP2_E1, RP2_H])


def test_candidates_past_degree_255():
    page = FreeModule([(299, 0), (300, 2)])
    assert candidate_outcomes(page) == [page, FreeModule([(299, 1), (300, 1)])]


def test_candidates_past_weight_65535():
    # no legal move: n = 70000 but s = 0
    page = FreeModule([(0, 0), (70000, 70000)])
    assert candidate_outcomes(page) == [page]
    page = FreeModule([(0, 0), (1, 70001)])
    assert candidate_outcomes(page) == [page, FreeModule([(0, 70000), (1, 1)])]
    page = FreeModule([(0, 0), (1, 1 << 64)])
    expected = [page, FreeModule([(0, 2**64 - 1), (1, 1)])]
    assert candidate_outcomes(page) == expected == closure_oracle(page)


def test_candidates_cell_outgrows_start_cells():
    # one move puts a 256th generator into the cell (0, 1), which holds
    # 255; with 65,535 there it puts the 65,536th, and the 65,537
    # generators give 32-bit fields
    for held in (255, 65_535):
        page = FreeModule([(0, 1)] * held + [(0, 0), (1, 2)])
        moved = FreeModule([(0, 1)] * (held + 1) + [(1, 1)])
        assert candidate_outcomes(page) == [page, moved]


def test_candidates_order_with_two_byte_fields():
    # 303 generators give 16-bit fields; 34 states over 16 cells exercise
    # the decode of multi-byte fields and the order of the packed states.
    page = FreeModule([(0, 1)] * 300 + [(1, 4), (2, 7), (3, 9)])
    cands = candidate_outcomes(page)
    assert len(cands) == 34
    assert cands == closure_oracle(page)


def test_candidates_include_start_and_respect_invariants():
    page = e1_page(2, SignWord.from_string("++--"))
    cands = candidate_outcomes(page)
    assert page in cands
    poly = page.poincare()
    for cand in cands:
        assert cand.poincare().underlying() == poly.underlying()
        assert cand.poincare().fixed_points() == poly.fixed_points()
        assert cand.total_weight() == page.total_weight()
        assert len(cand) == len(page)
        assert page.can_relax_to(cand)


# weights may exceed degrees: hand-entered modules need not be cell-like
hand_modules = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=6
).map(FreeModule)


def _same_margins(module):
    """Every module with module's degree slots and a rearrangement of its
    multiset of e = a - b over them, keeping weights nonnegative."""
    degrees = [a for a, _ in module.gens]
    es = [a - b for a, b in module.gens]
    for arrangement in set(permutations(es)):
        if all(a >= e for a, e in zip(degrees, arrangement)):
            yield FreeModule((a, a - e) for a, e in zip(degrees, arrangement))


@given(hand_modules)
@settings(max_examples=1000, deadline=None)
def test_closure_is_relaxation_down_set(module):
    expected = {b for b in _same_margins(module) if module.can_relax_to(b)}
    assert set(candidate_outcomes(module)) == expected
    assert set(closure_oracle(module)) == expected


@given(hand_modules)
@settings(max_examples=500, deadline=None)
def test_closure_matches_oracle(module):
    assert candidate_outcomes(module) == closure_oracle(module)


def _corner_counts(module, grid):
    """module's count of generators with a <= i and e = a - b <= t, for
    each corner (i, t) of grid."""
    return {(i, t): sum(a <= i and a - b <= t for a, b in module.gens) for i, t in grid}


def _grid(module):
    rows, cols = (sorted(set(margin)) for margin in search._margins(module))
    return [(i, t) for i in rows for t in cols]


@given(hand_modules)
@settings(max_examples=300, deadline=None)
def test_closure_stories_are_corner_count_differences(module):
    _assert_stories_are_corner_count_differences(module)


def _assert_stories_are_corner_count_differences(module):
    # The story the walk carries for a state is its own corner counts on C,
    # the corners that the moves over the closed cells change: field j
    # holds corner j of sorted C, no field lies past C, and the closure's
    # packer counts a module the same way.  Off C every state keeps the
    # start's counts.
    rows, cols = (sorted(set(margin)) for margin in search._margins(module))
    on_c = sorted({(i, t) for (a, b), (c, d) in _closed_moves(module) for i in rows
                   if a <= i < c for t in cols if c - d <= t < a - b})
    unlimited, began = Budget(max_modules=None), time.monotonic()
    cells, start, parts, _, (guard, count, corners) = search._closure(module, unlimited, began)
    states, stories = search._join(start, parts, unlimited, began)
    width = len(module).bit_length() + 1
    assert corners == on_c
    assert guard == sum(1 << width * j + width - 1 for j in range(len(on_c)))
    start = _corner_counts(module, _grid(module))
    closure = candidate_outcomes(module)
    assert len(stories) == len(closure)
    for target, story in zip(closure, stories):
        fields = [story >> width * j & (1 << width) - 1 for j in range(len(on_c))]
        assert story >> width * len(on_c) == 0
        assert fields == list(_corner_counts(target, on_c).values())
        assert count(target.gens) == story
        off_c = [x for x in start if x not in on_c]
        assert _corner_counts(target, off_c) == {x: start[x] for x in off_c}


@given(hand_modules)
@settings(max_examples=300, deadline=None)
def test_modules_beat_start_only_inside_its_move_rectangles(module):
    # solve's filter checks a page's need only on C: a module with the
    # start's margins has more generators than the start in corner (i, t)
    # only if some move of the start, (a, e1) to (c, e2), has a <= i < c
    # and e2 <= t < e1.
    rects = [(a, c, c - d, a - b) for (a, b), (c, d) in possible_differentials(module)]
    start = _corner_counts(module, _grid(module))
    for other in _same_margins(module):
        for (i, t), n in _corner_counts(other, start).items():
            if n > start[i, t]:
                assert any(a <= i < c and e2 <= t < e1 for a, c, e2, e1 in rects)


# These first pages split into 4, 7, 4, 9 and 3 move components, so the
# walk builds their closures as products.
@pytest.mark.parametrize("space", [(3, 7, 2), (2, 11, 5), (4, 8, 2), (2, 13, 6), (3, 8, 3)])
def test_closure_matches_oracle_on_first_page(space):
    page = unique_e1_pages(*space)[0]
    assert candidate_outcomes(page) == closure_oracle(page)


@given(hand_modules, hand_modules)
@settings(max_examples=200, deadline=None)
def test_closure_of_a_direct_sum_is_the_sum_of_closures(a, b):
    # A move keeps weights between its ends' and needs its target's weight
    # to pass its source's by more than the degree gap.  B moved up 20
    # degrees keeps weights of at most 6, so no move joins A's cells to
    # B's, and the closure of A + B is the product of theirs.
    b = FreeModule((d + 20, w) for d, w in b.gens)
    expected = sorted({x + y for x in closure_oracle(a) for y in closure_oracle(b)})
    assert candidate_outcomes(a + b) == expected
    _assert_stories_are_corner_count_differences(a + b)


def _box_modules():
    """Every cell-like module (0 <= b <= a) with a <= 4 and 1 to 5
    generators: 15,503 modules."""
    cells = [(a, b) for a in range(5) for b in range(a + 1)]
    for n in range(1, 6):
        yield from map(FreeModule, combinations_with_replacement(cells, n))


def _closed_moves(module):
    """The moves over module's cells closed under the move rule."""
    cells = set(module.gens)
    while True:
        reached = {x for move in possible_differentials(cells) for x in shift_result(*move)}
        if reached <= cells:
            return possible_differentials(cells)
        cells |= reached


def _assert_components_share_no_corner(module):
    # The moves over the closed cells link each move's four cells into
    # components; the rectangle {a <= i < c, e2 <= t < e1} of a move from
    # (a, e1) to (c, e2), e = a - b, must meet no other component's.
    moves = _closed_moves(module)
    root = {cell: cell for move in moves for cell in (*move, *shift_result(*move))}

    def find(cell):
        while root[cell] != cell:
            cell = root[cell]
        return cell

    for move in moves:
        for cell in (*move, *shift_result(*move)):
            root[find(cell)] = find(move[0])
    rows, cols = (sorted(set(margin)) for margin in search._margins(module))
    owner = {}
    for (a, b), (c, d) in moves:
        for corner in [(i, t) for i in rows if a <= i < c for t in cols if c - d <= t < a - b]:
            assert owner.setdefault(corner, find((a, b))) == find((a, b)), (module, corner)


def test_move_components_share_no_corner_in_the_box():
    modules = list(_box_modules())
    assert len(modules) == 15_503
    for module in modules:
        _assert_components_share_no_corner(module)


def test_move_components_share_no_corner_on_first_pages():
    spaces = [(k, p, q) for p in range(2, 10) for k in range(1, p) for q in range(p + 1)]
    assert len(spaces) == 276
    for space in spaces + [(2, 11, 5), (2, 13, 6), (4, 8, 2), (4, 8, 3), (3, 8, 4)]:
        _assert_components_share_no_corner(unique_e1_pages(*space)[0])


# These first pages split into 4, 5 and 7 move components, so their
# stories are sums of the components' stories.
@pytest.mark.parametrize("space", [(3, 7, 2), (2, 9, 4), (2, 11, 5)])
def test_first_page_stories_are_corner_count_differences(space):
    _assert_stories_are_corner_count_differences(unique_e1_pages(*space)[0])


def test_candidates_fully_relaxed_page():
    assert candidate_outcomes(RP2_H) == [RP2_H]


@pytest.mark.parametrize("strategy", ["matchings", 12345, None])
def test_candidate_outcomes_rejects_other_strategies(strategy):
    with pytest.raises(ValueError, match="unknown strategy"):
        candidate_outcomes(RP2_E1, strategy)
    assert candidate_outcomes(RP2_E1, search.DEFAULT_STRATEGY) == candidate_outcomes(RP2_E1)


def test_candidate_budget_abort():
    page = unique_e1_pages(3, 6, 3)[0]
    with pytest.raises(BudgetExceededError):
        candidate_outcomes(page, budget=Budget(max_modules=10))


def test_module_budget_counts_the_start():
    # RP2_H has no moves, so only the start itself can break a cap of 0.
    with pytest.raises(BudgetExceededError, match="exceeded 0 modules"):
        candidate_outcomes(RP2_H, budget=Budget(max_modules=0))
    with pytest.raises(BudgetExceededError, match="exceeded 0 modules"):
        closure_oracle(RP2_H, max_modules=0)
    assert candidate_outcomes(RP2_H, budget=Budget(max_modules=1)) == [RP2_H]
    assert closure_oracle(RP2_H, max_modules=1) == [RP2_H]


@pytest.mark.parametrize(
    "caps",
    [{"max_seconds": float("nan")}, {"max_seconds": -0.5}, {"max_modules": -1},
     {"max_words": -5}],
    ids=repr,
)
def test_budget_refuses_negative_and_nan_caps(caps):
    with pytest.raises(ValueError, match=f"{next(iter(caps))} must be None or nonnegative"):
        Budget(**caps)


def test_candidate_time_budget():
    page = unique_e1_pages(2, 8, 4)[0]
    with pytest.raises(BudgetExceededError):
        candidate_outcomes(page, budget=Budget(max_seconds=0.0))


def test_time_budget_covers_cell_closure(monkeypatch):
    calls = []
    lister = search.possible_differentials

    def counting(pairs):
        calls.append(1)
        return lister(pairs)

    monkeypatch.setattr(search, "possible_differentials", counting)
    page = FreeModule([(a, 2 * a) for a in range(12)])
    with pytest.raises(BudgetExceededError, match="exceeded 0.0 seconds"):
        candidate_outcomes(page, budget=Budget(max_modules=None, max_seconds=0.0))
    assert len(calls) <= 1


def test_time_budget_covers_the_search(monkeypatch):
    # A clock that ticks one second per read trips on the 12th read, after
    # the few rounds that build the cells: in the search itself.  With no
    # module cap the down-set is not counted, so the count reads no clock.
    ticks = count()
    monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: float(next(ticks))))
    rounds = []
    lister = search.possible_differentials
    monkeypatch.setattr(search, "possible_differentials", lambda cells: rounds.append(1) or lister(cells))
    page = unique_e1_pages(3, 6, 3)[0]
    with pytest.raises(BudgetExceededError, match="candidate enumeration exceeded 10 seconds"):
        candidate_outcomes(page, budget=Budget(max_modules=None, max_seconds=10))
    assert 0 < len(rounds) < 10


def test_time_budget_covers_the_count(monkeypatch):
    # The same clock trips in the count, which reads it once per step,
    # before the first round of cells.
    ticks = count()
    monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: float(next(ticks))))
    monkeypatch.setattr(search, "possible_differentials", _refuse_moves)
    page = unique_e1_pages(4, 8, 3)[0]
    with pytest.raises(BudgetExceededError, match="candidate enumeration exceeded 10 seconds"):
        candidate_outcomes(page, budget=Budget(max_seconds=10))


@pytest.mark.parametrize("walks", [1, 4])
def test_time_budget_covers_the_walks_and_joins(monkeypatch, walks):
    # (4,8,2)'s first page splits into 4 move components.  The clock holds
    # still until the frontier of walk number `walks` runs dry and then
    # jumps 100 seconds.  After the first walk the next walk's check trips
    # before it takes a state; after the last, the check that ends the
    # closure, before any filter or join, trips.
    now = [0.0]
    monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: now[0]))
    frontiers = []

    class Frontier(deque):
        def __init__(self, states):
            super().__init__(states)
            self.pops = 0
            frontiers.append(self)

        def popleft(self):
            self.pops += 1
            return super().popleft()

        def __bool__(self):
            if len(self):
                return True
            if len(frontiers) == walks:
                now[0] += 100.0
            return False

    monkeypatch.setattr(search, "deque", Frontier)
    report = solve(4, 8, 2, budget=Budget(max_modules=None, max_seconds=1.0))
    assert report.failure == "candidate enumeration exceeded 1.0 seconds"
    assert report.pages and not report.states
    assert len(frontiers) == min(walks + 1, 4)
    assert frontiers[walks - 1].pops and not any(f.pops for f in frontiers[walks:])


def _refuse_moves(cells):
    raise AssertionError("moves listed after the count passed the cap")


def test_module_budget_memory_before_abort():
    # The count aborts before any cell, move or state is built, though the
    # cells of these starts grow as n**2 and the moves over them faster: at
    # n = 40 building them first took 2.5 s and over 250 MiB.  The count
    # holds at most max_modules states; traced peaks were 0.12 and 0.19 MiB.
    for n in (20, 40):
        page = FreeModule([(a, 2 * a) for a in range(n)])
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match="exceeded 1000 modules"):
                candidate_outcomes(page, budget=Budget(max_modules=1000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


@pytest.mark.parametrize(
    "space",
    [(k, p, q) for p in range(2, 7) for k in range(1, p) for q in range(p + 1)]
    + [(4, 8, 2), (2, 13, 6)],
)
def test_count_down_set_matches_closure_on_first_page(space):
    page = unique_e1_pages(*space)[0]
    closure = candidate_outcomes(page, budget=Budget(max_modules=None))
    assert search._count_down_set(page, Budget(max_modules=None), 0.0) == len(closure)


def test_closure_is_the_down_set_in_the_box():
    # The closure lies inside the down-set, so equal sizes mean equal sets:
    # on these modules the module cap aborts exactly the runs a walk would.
    unlimited = Budget(max_modules=None)
    for module in _box_modules():
        began = time.monotonic()
        _, start, parts, _, _ = search._closure(module, unlimited, began)
        states = search._join(start, parts, unlimited, began)[0]
        assert len(states) == search._count_down_set(module, unlimited, 0.0), module


@given(hand_modules)
@settings(max_examples=500, deadline=None)
def test_count_down_set_matches_oracle_and_caps_exactly(module):
    size = len(closure_oracle(module))
    assert search._count_down_set(module, Budget(max_modules=None), 0.0) == size
    for cap in (size - 1, size, size + 1):
        try:
            candidate_outcomes(module, budget=Budget(max_modules=cap))
        except BudgetExceededError:
            assert size > cap
        else:
            assert size <= cap


def test_over_cap_solve_builds_no_cells(monkeypatch):
    # (4,8,3)'s down-set holds 2,492,832 tables, over the default cap.
    monkeypatch.setattr(search, "possible_differentials", _refuse_moves)
    report = solve(4, 8, 3)
    assert report.failure == "candidate enumeration exceeded 1000000 modules"
    assert report.pages and not report.cells and not report.states


def test_reduce_pages_gr131():
    pages = unique_e1_pages(1, 3, 1)
    assert len(pages) == 2
    kept = reduce_pages(pages)
    assert kept == [FreeModule([(0, 0), (1, 1), (2, 1)])]


def test_reduce_pages_singleton():
    assert reduce_pages([RP2_E1]) == [RP2_E1]


def test_reduce_pages_empty():
    assert reduce_pages([]) == []


def test_reduce_pages_published_count():
    pages = unique_e1_pages(3, 6, 3)
    assert len(reduce_pages(pages[1:])) == 2


def test_reduce_pages_refuses_pages_out_of_tension_order():
    # Reversed, the (3,6,3) census would keep all 6 pages instead of 3.
    pages = unique_e1_pages(3, 6, 3)
    assert len(pages) == 6 and len(reduce_pages(pages)) == 3
    with pytest.raises(ValueError, match="sorted by tension"):
        reduce_pages(pages[::-1])


@pytest.mark.parametrize("space", [(1, 3, 1), (3, 6, 3), (2, 8, 4), (2, 9, 4)])
def test_reduce_pages_matches_solve_filter_pages(space):
    pages = unique_e1_pages(*space)
    kept = reduce_pages(pages)
    report = solve(*space)
    assert kept[0] == pages[0]
    assert kept[:0:-1] == [pages[i] for i in report.filter_page_indices]


def _reduce_against_every_earlier_page(pages):
    """The reduction rule checked against every earlier page, kept or not."""
    return [
        page
        for i, page in enumerate(pages)
        if not any(page.can_relax_to(pages[j]) for j in range(i))
    ]


@pytest.mark.parametrize(
    "space", [(1, 3, 1), (3, 6, 3), (2, 8, 4), (2, 9, 4), (3, 7, 2), (3, 7, 3), (2, 11, 5)]
)
def test_reduce_pages_matches_every_earlier_page_rule(space):
    pages = unique_e1_pages(*space)
    assert reduce_pages(pages) == _reduce_against_every_earlier_page(pages)


@cache
def _pages_and_closure(space):
    pages = unique_e1_pages(*space)
    return tuple(pages), tuple(candidate_outcomes(pages[0]))


def _keys_relax(page0, source, target):
    """The corner-key test on page0's corners, margins compared first."""
    guard, key = search._corner_keys(page0)
    margins = search._margins(page0)
    if search._margins(source) != margins or search._margins(target) != margins:
        return False
    return ((key(target.gens) | guard) - key(source.gens)) & guard == guard


_KEY_SPACES = [(1, 3, 1), (2, 6, 3), (3, 6, 3), (2, 8, 4), (3, 7, 2), (2, 9, 4)]


@given(st.sampled_from(_KEY_SPACES), st.data())
@settings(max_examples=300, deadline=None)
def test_corner_keys_match_can_relax_to(space, data):
    pages, closure = _pages_and_closure(space)
    pool = st.sampled_from(data.draw(st.sampled_from([pages, closure, pages + closure])))
    source, target = data.draw(pool), data.draw(pool)
    assert _keys_relax(pages[0], source, target) == source.can_relax_to(target)


def _off_margins(module, i, shift_degree):
    """module with generator i moved off page 0's margins: one step up in
    degree and weight keeps its e but changes the degrees; one step up in
    weight changes its e."""
    a, b = module.gens[i]
    moved = (a + 1, b + 1) if shift_degree else (a, b + 1)
    return FreeModule(module.gens[:i] + (moved,) + module.gens[i + 1:])


@given(st.sampled_from(_KEY_SPACES), st.data())
@settings(max_examples=200, deadline=None)
def test_corner_keys_refuse_other_margins(space, data):
    pages, closure = _pages_and_closure(space)
    module = data.draw(st.sampled_from(pages + closure))
    other = _off_margins(
        module, data.draw(st.integers(0, len(module) - 1)), data.draw(st.booleans())
    )
    for source, target in [(module, other), (other, module)]:
        assert not source.can_relax_to(target)
        assert not _keys_relax(pages[0], source, target)
    # reduce_pages compares the margins once and refuses the stranger
    pair = sorted([module, other], key=FreeModule.tension)
    with pytest.raises(ValueError, match="degrees and values of e"):
        reduce_pages(pair)


@given(st.sampled_from(_KEY_SPACES + [(3, 7, 3)]), st.data())
@settings(max_examples=100, deadline=None)
def test_reduce_pages_on_sublists_matches_every_earlier_page_rule(space, data):
    pages, _ = _pages_and_closure(space)
    chosen = data.draw(st.sets(st.integers(0, len(pages) - 1), min_size=1))
    sub = [pages[i] for i in sorted(chosen)]
    assert reduce_pages(sub) == _reduce_against_every_earlier_page(sub)


@pytest.mark.parametrize(
    "space",
    [(k, p, q) for p in range(2, 10) for k in range(1, p) for q in range(p + 1)]
    + [(2, 11, 5), (2, 13, 6), (4, 8, 2), (4, 8, 3)],
)
def test_census_pages_share_page0_margins(space):
    # solve's page reduction and filter compare corner keys and trust this:
    # every first page has the underlying and fixed-set polynomials' margins.
    pages = unique_e1_pages(*space)
    margins = search._margins(pages[0])
    assert all(search._margins(page) == margins for page in pages)


def _certificate(start, target):
    """The greedy chain of moves from start to target: at each step the
    first listed move whose result still relaxes to target.  None if the
    chain stalls."""
    moves, module = [], start
    while module != target:
        for src, tgt in possible_differentials(module):
            gens = list(module.gens)
            gens.remove(src)
            gens.remove(tgt)
            after = FreeModule(gens + list(shift_result(src, tgt)))
            if after.can_relax_to(target):
                break
        else:
            return None
        moves.append((src, tgt))
        module = after
    return moves


def _assert_certified(start, target):
    moves = _certificate(start, target)
    assert moves is not None, f"chain from {start} to {target} stalled"
    assert reduce(FreeModule.apply_shift, moves, start) == target


@given(hand_modules)
@settings(max_examples=300, deadline=None)
def test_greedy_chain_reaches_every_closure_module(module):
    for target in closure_oracle(module):
        _assert_certified(module, target)


@pytest.mark.parametrize("space", [(3, 6, 3), (3, 7, 2), (4, 8, 2)])
def test_greedy_chain_certifies_every_survivor(space):
    report = solve(*space)
    assert report.survivors
    for survivor in report.survivors:
        _assert_certified(report.pages[0], survivor)


def _tables_above(page0, bound):
    """Every module with page0's degrees and values of e = a - b, b >= 0,
    and at least bound[i, t] generators with a <= i and e <= t at each
    corner (i, t) of page0's grid, listed row by row."""
    degrees, es = search._margins(page0)
    rows, cols = sorted(set(degrees)), sorted(set(es))
    room = [es.count(e) for e in cols]
    used = [0] * len(cols)
    placed = []

    def fill(r, k, left, run):
        # run counts the generators placed in rows <= r and columns < k
        if k == len(cols):
            if left == 0 and r + 1 == len(rows):
                yield FreeModule((a, a - e) for a, e, n in placed for _ in range(n))
            elif left == 0:
                yield from fill(r + 1, 0, degrees.count(rows[r + 1]), 0)
            return
        have = run + used[k]
        top = min(left, room[k] - used[k]) if cols[k] <= rows[r] else 0
        for n in range(max(0, bound[rows[r], cols[k]] - have), top + 1):
            used[k] += n
            placed.append((rows[r], cols[k], n))
            yield from fill(r, k + 1, left - n, have + n)
            placed.pop()
            used[k] -= n

    return list(fill(0, 0, degrees.count(rows[0]), 0))


CRITERION_8_SPACES = [(k, p, q) for p in range(2, 7) for k in range(1, p) for q in range(p + 1)]


@pytest.mark.parametrize("space", CRITERION_8_SPACES + [(3, 7, 2), (4, 8, 2), (2, 13, 6)])
def test_tables_above_the_bound_are_the_survivors(space):
    # The bound is the fieldwise maximum of the kept pages' corner counts;
    # a dropped page relaxes to a kept one, so it would not raise it.
    report = solve(*space)
    grid = _grid(report.pages[0])
    counts = [_corner_counts(page, grid) for page in reduce_pages(report.pages)]
    bound = {x: max(c[x] for c in counts) for x in grid}
    assert sorted(_tables_above(report.pages[0], bound)) == report.survivors


@pytest.mark.parametrize("space", CRITERION_8_SPACES + [(2, 11, 5), (2, 13, 6)])
def test_report_pages_are_the_census(space):
    assert solve(*space).pages == unique_e1_pages(*space)


def test_survivors_decode_no_census_page_past_page0(monkeypatch):
    # solve sums each census page's need from its packed values; reading
    # only the survivors must leave the 1,715 pages of (2,13,6) past page 0
    # undecoded.
    pages = unique_e1_pages(2, 13, 6)
    built = []
    init = FreeModule.__init__

    def recording(self, gens=()):
        init(self, gens)
        built.append(self)

    monkeypatch.setattr(FreeModule, "__init__", recording)
    report = solve(2, 13, 6)
    survivors = report.survivors
    monkeypatch.undo()
    assert len(survivors) == 1 and survivors[0] not in pages
    assert set(pages) & set(built) == {pages[0]}
    assert report.pages == pages


@pytest.mark.parametrize(
    "space",
    CRITERION_8_SPACES + [(3, 7, 2), (4, 8, 2), (2, 11, 5), (2, 13, 6), (3, 8, 3), (3, 10, 2)],
)
def test_one_need_survivors_are_what_the_page_filter_leaves(space):
    # The survivors come from filtering each part alone; their oracles are
    # the whole join filtered by the one need, the fieldwise maximum of the
    # pages' counts on C, and the log's per-page filter.
    report = solve(*space)
    _, _, top, count, _, _ = report.closure
    width = len(report.pages[0]).bit_length() + 1
    counts = [count(page.gens) for page in report.pages]
    need = sum(max(c >> j & (1 << width) - 1 for c in counts) << j
               for j in range(0, top.bit_length(), width))
    states, stories = report._joined
    assert report.survivor_states == [
        state for state, story in zip(states, stories) if ((story | top) - need) & top == top
    ]
    struck = {c for _, removed in report.filter_log for c in removed}
    assert report.survivor_indices == [c for c in range(len(report.states)) if c not in struck]


@pytest.mark.parametrize(
    "space",
    [(k, p, q) for p in range(2, 10) for k in range(1, p) for q in range(p + 1)]
    + [(2, 11, 5), (2, 13, 6), (1, 300, 1)],
)
def test_page0_and_the_need_come_from_the_census_fields(monkeypatch, space):
    # solve takes page 0, the word of least tension, and each corner's
    # need, its largest count over the words, from the census's fields;
    # their oracles are the census's first page and the fieldwise maximum
    # of every page's counts on C.
    page0s, closures, mosts = [], [], []
    closure, most = search._closure, schubert._Weigher.most

    def spy_closure(page0, *args):
        page0s.append(page0)
        closures.append(closure(page0, *args))
        return closures[-1]

    monkeypatch.setattr(search, "_closure", spy_closure)
    monkeypatch.setattr(
        schubert._Weigher, "most", lambda *args: mosts.append(most(*args)) or mosts[-1]
    )
    report = solve(*space)
    pages = unique_e1_pages(*space)
    assert page0s == [pages[0]]
    if not closures:  # the module cap stopped the closure
        assert report.failure and not mosts
        return
    _, count, corners = closures[0][4]
    width = len(pages[0]).bit_length() + 1
    counts = [count(page.gens) for page in pages]
    assert [max(column) for column in zip(*mosts)] == [
        max(c >> width * j & (1 << width) - 1 for c in counts) for j in range(len(corners))
    ]


@pytest.mark.parametrize(
    "space", [(2, 6, 3), (3, 6, 3), (3, 7, 2), (4, 8, 2), (2, 11, 5), (1, 12, 6)]
)
def test_reports_are_the_same_in_small_blocks(monkeypatch, space):
    # In blocks of 7 words page 0 is chosen across blocks, and solve weighs
    # the words again for the need.
    whole = solve(*space).to_json_bytes()
    monkeypatch.setattr(schubert, "BLOCK_WORDS", 7)
    assert solve(*space).to_json_bytes() == whole


@pytest.mark.parametrize("space", CRITERION_8_SPACES + [(2, 11, 5), (2, 13, 6), (1, 300, 1), (4, 8, 3)])
def test_reports_are_the_same_on_either_page0_path(monkeypatch, space):
    # Every block counts tension by levels, then every block word by word.
    reports = []
    for by_levels in (True, False):
        monkeypatch.setattr(schubert._Weigher, "by_levels", lambda self, n: by_levels)
        report = solve(*space)
        reports.append((report.failure, report.to_json_bytes()))
    assert reports[0] == reports[1]
    failure = reports[0][0]
    if space == (4, 8, 3):  # page 0's down-set passes the module cap
        assert failure.startswith("candidate enumeration exceeded")
    else:
        assert failure is None


def test_report_builds_the_log_once_on_access(monkeypatch):
    calls = []
    kept_pages = search._kept_pages
    monkeypatch.setattr(search, "_kept_pages", lambda *args: calls.append(1) or kept_pages(*args))
    report = solve(3, 6, 3)
    assert report.survivors and report.candidates and not calls
    assert report.filter_page_indices == [3, 1] and calls == [1]
    assert [len(removed) for _, removed in report.filter_log] == [11, 7]
    report.to_json()
    assert calls == [1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.filter_log = []


def _un_moves(module):
    """Every module that one move would take to module: generators at
    (a, e2) and (c, e1), e = a - b, with a < c and e2 < e1 <= a, go back
    to (a, e1) and (c, e2)."""
    for (a, b), (c, d) in combinations(sorted(set(module.gens)), 2):
        if a < c and a - b < c - d <= a:
            gens = list(module.gens)
            gens.remove((a, b))
            gens.remove((c, d))
            yield FreeModule(gens + [(a, a - c + d), (c, b + c - a)])


def test_every_down_set_table_has_an_un_move_inside_the_down_set():
    # The lemma behind closure = down-set: by induction on tension down
    # from page 0, each table of page 0's down-set is one move from a
    # table of the closure.  No closure is walked here.  Besides page 0
    # the criterion-8 down-sets hold 68 tables, the other three 621.
    tables = 0
    for space in CRITERION_8_SPACES + [(3, 7, 2), (2, 9, 4), (2, 11, 5)]:
        page0 = unique_e1_pages(*space)[0]
        down_set = _tables_above(page0, _corner_counts(page0, _grid(page0)))
        assert page0 in down_set
        for table in down_set:
            if table != page0:
                tables += 1
                assert any(map(page0.can_relax_to, _un_moves(table))), (space, table)
    assert tables == 68 + 621


# sha256 of solve(k, p, q).to_json_bytes(), the compact encoding of the
# report.  The CLI prints the same report with other separators; its bytes
# are pinned by tests/test_cli.py::test_solve_deterministic_bytes.
SOLVE_GOLDEN_SHA256 = {
    (1, 3, 1): "5182824d00e3785d5b298994979c9415fb7cb170a55e34333e42f38ce6fe29ec",
    (2, 6, 3): "c453358aaeebec2f8da000b0cb46d53f112c6c21deaf4c3bc1c3cb3e4ffeef6d",
    (3, 6, 3): "72f57baf27d21cd1790be0bd08f4e3b72805ae0a8813f40f9de3f7e53025c5dd",
    (2, 8, 4): "d2de14f2b807b5e9f395619db41116cffe782f60528a023b3542587ceefbeba8",
    (3, 7, 2): "97aca8c54b11bef7dec09dd2cfb2d31ceaa749dcc403b345beadc04b0968d8bc",
    (2, 9, 4): "e783af22eb599ae238f7e94129a58f30b301f08d8b511fa69a7c8cbd31692ec0",
    # the benchmark's spaces, where the filter and the page reduction do
    # real work
    (2, 11, 5): "98bd72f090c5a3d866f3de8975e12ac21dc0d23a066206f97f673850c125ee4d",
    (2, 13, 6): "5c49ce0f4cbd54335bd406abf6d9d7ef4e84fa71332bd3753f7a83a0165920ce",
    (4, 8, 2): "23ac3e235a484d8a6642778ff5a838658f15d6cd3b5973602bcef0f0c64ec1c1",
}


@pytest.mark.parametrize("space", sorted(SOLVE_GOLDEN_SHA256))
def test_solve_report_bytes_golden(space):
    digest = hashlib.sha256(solve(*space).to_json_bytes()).hexdigest()
    assert digest == SOLVE_GOLDEN_SHA256[space]


def test_solve_does_no_polynomial_division(monkeypatch):
    def refuse(self):
        raise AssertionError("solve divided a polynomial")

    monkeypatch.setattr(BiPoly, "divide_by_k11", refuse)
    digest = hashlib.sha256(solve(2, 9, 4).to_json_bytes()).hexdigest()
    assert digest == SOLVE_GOLDEN_SHA256[(2, 9, 4)]
    report = solve(1, 60, 1)
    assert not report.incomplete
    assert report.survivors == report.pages[:1]


def test_solve_rp2():
    report = solve(1, 3, 1)
    assert report.survivors == [RP2_H]
    assert not report.incomplete


def test_solve_validates_parameters():
    with pytest.raises(ValueError):
        solve(0, 3, 1)
    with pytest.raises(ValueError):
        solve(1, 3, 5)
    with pytest.raises(ValueError):
        solve(1, 3, 1, jobs=2)


def test_solve_is_deterministic():
    a, b = solve(3, 6, 3), solve(3, 6, 3)
    assert a.to_json_bytes() == b.to_json_bytes()
    assert a == b


@pytest.mark.parametrize("space", [(3, 6, 3), (2, 8, 4), (3, 7, 2), (4, 8, 2), (2, 11, 5)])
def test_report_survivors_pass_every_filter_page(space):
    report = solve(*space)
    cands = report.candidates
    filters = [report.pages[i] for i in report.filter_page_indices]
    assert report.survivor_indices == [
        i
        for i, cand in enumerate(cands)
        if all(page.can_relax_to(cand) for page in filters)
    ]
    # and the log is the page-major filter's: each live page's removals
    alive = list(range(len(report.states)))
    log = []
    for page_idx in report.filter_page_indices:
        flags = [report.pages[page_idx].can_relax_to(cands[i]) for i in alive]
        removed = [i for i, ok in zip(alive, flags) if not ok]
        if removed:
            log.append((page_idx, removed))
            alive = [i for i, ok in zip(alive, flags) if ok]
    assert report.filter_log == log
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.failure = "edited"


@pytest.mark.parametrize("space", [(3, 6, 3), (4, 8, 2)])
def test_report_decodes_candidates_on_access(space):
    report = solve(*space)
    cands = report.candidates
    assert report.candidates is cands  # decoded once, then cached
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.states = []
    assert cands == candidate_outcomes(report.pages[0])
    assert report.to_json()["candidates"] == [m.to_json() for m in cands]
    assert report.survivors == [cands[i] for i in report.survivor_indices]


def test_solve_heap_peak():
    # The report keeps the closure's packed states; only what a caller
    # asks for is decoded into modules.  Decoding all 7,776 candidates of
    # (4,8,2) up front had a traced peak of about 6 MiB.
    tracemalloc.start()
    try:
        report = solve(4, 8, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.states) == 7776
    assert peak < 3 * (1 << 20)


def test_solve_heap_peak_on_wide_grid():
    # Gr_1(R^{300,1}): 300 rows by 299 values of e, so a full corner key
    # is about 111 KB.  A filter that built one key per closure cell peaked
    # at 35.5 MiB traced; the stories need no per-cell key (3.5 MiB).
    tracemalloc.start()
    try:
        report = solve(1, 300, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.survivors) == 1
    assert peak < 8 * (1 << 20)


def test_closure_on_wide_grid_builds_no_grid_keys():
    # The stories cover only the corners the moves change: a walk that
    # built grid-sized keys here took 12.6 s and 34.8 MiB.  Measured
    # without tracing, the closure takes about 0.01 s.
    page = unique_e1_pages(1, 300, 1)[0]
    best = float("inf")
    for _ in range(3):
        began = time.perf_counter()
        assert candidate_outcomes(page) == [page]
        best = min(best, time.perf_counter() - began)
    tracemalloc.start()
    try:
        candidate_outcomes(page)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert best < 0.06


def test_closure_abort_builds_no_keys(monkeypatch):
    def refuse(page0):
        raise AssertionError("keys built after a closure abort")

    monkeypatch.setattr(search, "_corner_keys", refuse)
    report = solve(3, 6, 3, budget=Budget(max_modules=4))
    assert report.failure == "candidate enumeration exceeded 4 modules"
    assert report.pages and not report.states


def _stop_clock_until(monkeypatch, name):
    """Hold search's clock still, and move it on by 100 seconds each time
    search.<name> returns."""
    now = [0.0]
    monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: now[0]))
    inner = getattr(search, name)

    def then_jump(*args, **kwargs):
        result = inner(*args, **kwargs)
        now[0] += 100.0
        return result

    monkeypatch.setattr(search, name, then_jump)


def test_time_budget_covers_the_survivor_filter(monkeypatch):
    _stop_clock_until(monkeypatch, "_closure")
    report = solve(3, 6, 3, budget=Budget(max_seconds=1.0))
    assert report.incomplete
    assert report.failure == "candidate filter exceeded 1.0 seconds"
    assert report.pages and not report.states
    code = run(["solve", "--k", "3", "--p", "6", "--q", "3", "--max-seconds", "1"])
    assert code == EXIT_BUDGET


@pytest.mark.parametrize(
    "name, phase", [("solve", "page reduction"), ("_kept_pages", "candidate filter")]
)
def test_time_budget_covers_the_log(monkeypatch, name, phase):
    # solve's survivors need no page reduction; the report's log runs it,
    # and the per-page filter, on first access under solve's deadline.
    _stop_clock_until(monkeypatch, name)
    report = search.solve(3, 6, 3, budget=Budget(max_seconds=1.0))
    assert not report.incomplete and len(report.survivor_indices) == 6
    with pytest.raises(BudgetExceededError, match=f"^{phase} exceeded 1.0 seconds$"):
        report.to_json()


@pytest.mark.parametrize(
    "read",
    [lambda r: r.states, lambda r: r.candidates, lambda r: r.to_json()],
    ids=["states", "candidates", "to_json"],
)
def test_time_budget_covers_the_join(monkeypatch, read):
    # (4,8,2)'s closure has four parts.  solve joins only the survivors'
    # states; the whole join runs on first access, under solve's deadline.
    _stop_clock_until(monkeypatch, "solve")
    report = search.solve(4, 8, 2, budget=Budget(max_seconds=1.0))
    assert not report.incomplete and len(report.survivors) == 6
    with pytest.raises(BudgetExceededError, match="^candidate enumeration exceeded 1.0 seconds$"):
        read(report)


@pytest.mark.parametrize(
    "argv, code",
    [(["candidates"], EXIT_BUDGET), (["solve", "--format", "json"], EXIT_BUDGET),
     (["solve", "--format", "table"], cli.EXIT_AMBIGUOUS)],
    ids=["candidates", "json", "table"],
)
def test_time_budget_covers_the_join_on_the_cli(monkeypatch, capsys, argv, code):
    _stop_clock_until(monkeypatch, "solve")
    monkeypatch.setattr(cli, "solve", search.solve)
    assert run([*argv, "--k", "4", "--p", "8", "--q", "2", "--max-seconds", "1"]) == code
    out, err = capsys.readouterr()
    if code == EXIT_BUDGET:
        assert not out and err == "budget exceeded: candidate enumeration exceeded 1.0 seconds\n"
    else:
        assert out.startswith("# 6 surviving candidates\n") and not err


def test_time_budget_covers_the_part_filter(monkeypatch):
    # The clock jumps at the first check after the need's check of every
    # block of words: the check before the first part is filtered.
    blocks = -(-math.comb(8, 2) // BLOCK_WORDS)
    now, filters = [0.0], []
    monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: now[0]))
    check = search._check_clock

    def counting(began, budget, phase):
        if phase == "candidate filter":
            filters.append(phase)
            if len(filters) == blocks + 1:
                now[0] += 100.0
        check(began, budget, phase)

    monkeypatch.setattr(search, "_check_clock", counting)
    report = solve(4, 8, 2, budget=Budget(max_seconds=1.0))
    assert report.failure == "candidate filter exceeded 1.0 seconds"
    assert len(filters) == blocks + 1 and not report.survivor_states


@pytest.mark.parametrize("fmt, code", [("json", EXIT_BUDGET), ("table", cli.EXIT_AMBIGUOUS)])
def test_time_budget_covers_the_log_on_the_cli(monkeypatch, capsys, fmt, code):
    # The clock moves on between solve returning and the output: only the
    # JSON reads the log, so only it runs past the deadline.
    _stop_clock_until(monkeypatch, "solve")
    monkeypatch.setattr(cli, "solve", search.solve)
    argv = ["solve", "--k", "3", "--p", "6", "--q", "3", "--max-seconds", "1", "--format", fmt]
    assert run(argv) == code
    out, err = capsys.readouterr()
    if fmt == "json":
        assert not out and err == "budget exceeded: page reduction exceeded 1.0 seconds\n"
    else:
        assert out.startswith("# 6 surviving candidates\n") and not err


def test_time_budget_covers_the_census(monkeypatch):
    # The clock reads 0 when the solve starts and 100 after that, so the
    # check after the first sign word trips.
    def late_clock():
        clock = iter([0.0])
        monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: next(clock, 100.0)))

    late_clock()
    report = solve(2, 8, 4, budget=Budget(max_seconds=1.0))
    assert report.failure == "sign-word census exceeded 1.0 seconds"
    assert not report.pages
    late_clock()
    code = run(["solve", "--k", "2", "--p", "8", "--q", "4", "--max-seconds", "1"])
    assert code == EXIT_BUDGET


def test_candidates_clock_covers_the_census(monkeypatch, capsys):
    # candidates runs solve, so its clock starts before the census too.
    clock = iter([0.0])
    monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: next(clock, 100.0)))
    code = run(["candidates", "--k", "2", "--p", "8", "--q", "4", "--max-seconds", "1"])
    assert code == EXIT_BUDGET
    assert "sign-word census exceeded 1.0 seconds" in capsys.readouterr().err


def test_solve_reads_the_clock_once_without_a_deadline(monkeypatch):
    reads = []
    monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: reads.append(1) or 0.0))
    solve(2, 8, 4)
    assert len(reads) == 1


def test_filter_order_does_not_change_survivors():
    report = solve(3, 6, 3)
    pages = report.pages
    cands = report.candidates
    for order in ([1, 3], [3, 1]):
        alive = list(cands)
        for idx in order:
            alive = [c for c in alive if pages[idx].can_relax_to(c)]
        assert sorted(alive) == sorted(report.survivors)


def test_solve_budget_abort_is_incomplete_report():
    report = solve(3, 6, 3, budget=Budget(max_modules=4))
    assert report.incomplete
    assert report.failure and "4" in report.failure
    assert report.pages and not report.candidates
    word_limited = solve(3, 6, 3, budget=Budget(max_words=5))
    assert word_limited.incomplete
    assert not word_limited.pages


def test_subspace_filter_trivial_cases():
    h = RP2_H
    q = FreeModule([(3, 3)])
    cands = [h + q]
    assert subspace_filter(cands, h, q) == cands
    assert subspace_filter([], h, q) == []


def test_subspace_filter_discards_unreachable():
    h = RP2_H
    q = FreeModule([(3, 3)])
    tighter = FreeModule([(0, 0), (1, 1), (2, 1), (3, 4)])
    assert subspace_filter([tighter], h, q) == []
