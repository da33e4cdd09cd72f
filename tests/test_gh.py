import gc
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mslab import (
    Correspondence,
    DiameterExceedsTError,
    InvalidParameterError,
    NotDeltaConnectedError,
    SizeCapExceededError,
    UnsupportedCaseError,
    build_hyperspace,
    diam_eps,
    distortion,
    full_correspondence,
    gh_bounds,
    gh_exact,
    gh_one_point,
    gh_simplex_simplex,
    gh_simplex_vs_delta_connected,
    gh_simplex_vs_finite,
    induced_correspondence,
    random_space,
    simplex,
    validate_matrix,
)
from mslab.gh import _BudgetExhausted, _Searcher

from helpers import (
    are_isometric,
    brute_force_min_distortion,
    chain,
    line013,
    scale,
)


class TestGhExact:
    def test_identical_spaces_zero(self):
        space = line013()
        result = gh_exact(space, space)
        assert result.distance == 0
        assert result.status == "exact"
        assert distortion(result.witness, space, space) == 0

    def test_simplex_pair(self):
        r = gh_exact(simplex(2, Fraction(1)), simplex(3, Fraction(1)))
        assert r.distance == Fraction(1, 2)

    def test_witness_distortion_equals_double_distance(self):
        x = random_space(3, 41, 9)
        y = random_space(3, 42, 9)
        r = gh_exact(x, y)
        assert r.status == "exact"
        assert distortion(r.witness, x, y) == 2 * r.distance

    def test_symmetry(self):
        x = random_space(3, 51, 9)
        y = random_space(2, 52, 9)
        assert gh_exact(x, y).distance == gh_exact(y, x).distance

    def test_witness_deterministic(self):
        x = random_space(3, 61, 9)
        y = random_space(3, 62, 9)
        w1 = gh_exact(x, y).witness.sorted_pairs()
        w2 = gh_exact(x, y).witness.sorted_pairs()
        assert w1 == w2

    def test_matches_brute_force_small(self):
        for seed in range(15):
            x = random_space(1 + seed % 3, seed, 6)
            y = random_space(1 + (seed // 3) % 3, seed + 100, 6)
            expected = brute_force_min_distortion(x, y) / 2
            assert gh_exact(x, y).distance == expected

    def test_one_point_vs_anything(self):
        y = line013()
        r = gh_exact(simplex(1, Fraction(7)), y)
        assert r.distance == Fraction(3, 2)

    def test_budget_exhaustion_returns_upper_bound(self):
        x = random_space(3, 5, 9)
        y = random_space(3, 6, 9)
        full = gh_exact(x, y)
        capped = gh_exact(x, y, node_budget=2)
        assert capped.status == "budget_exceeded"
        assert capped.distance >= full.distance
        assert (distortion(capped.witness, x, y)
                == 2 * capped.distance)

    def test_budget_bound_is_half_witness_distortion(self):
        x = build_hyperspace(random_space(3, 3, 9)).metric
        y = build_hyperspace(random_space(3, 1003, 9)).metric
        capped = gh_exact(x, y, node_budget=20)
        assert capped.status == "budget_exceeded"
        assert distortion(capped.witness, x, y) == 1
        assert capped.distance == Fraction(1, 2)

    def test_bad_budget(self):
        with pytest.raises(InvalidParameterError):
            gh_exact(line013(), line013(), node_budget=0)

    def test_too_many_points_raise_before_the_search(self):
        # the search recurses once per point; 801 + 1 points exceed the cap
        with pytest.raises(SizeCapExceededError):
            gh_exact(simplex(801, 1), simplex(1, 1))

    def test_search_at_the_point_cap_does_not_overflow_the_stack(self):
        result = gh_exact(simplex(799, 1), simplex(1, 1))
        assert result.distance == Fraction(1, 2)
        assert result.status == "exact"

    @given(sx=st.integers(0, 40), sy=st.integers(0, 40))
    @settings(max_examples=30, deadline=None)
    def test_scaling_invariance(self, sx, sy):
        x = random_space(2, sx, 6)
        y = random_space(3, sy, 6)
        base = gh_exact(x, y).distance
        scaled = gh_exact(scale(x, Fraction(3, 2)),
                          scale(y, Fraction(3, 2))).distance
        assert scaled == Fraction(3, 2) * base

    def test_zero_iff_isometric(self):
        import random as _random

        for seed in range(20):
            rng = _random.Random(seed)
            n = rng.randint(1, 4)
            x = random_space(n, seed + 900, 6)
            y = random_space(rng.randint(1, 4), seed + 950, 6)
            assert (gh_exact(x, y).distance == 0) == are_isometric(x, y)
            perm = list(range(n))
            rng.shuffle(perm)
            rows = [[x.d[perm[i]][perm[j]] for j in range(n)]
                    for i in range(n)]
            assert gh_exact(x, validate_matrix(rows)).distance == 0

    @given(s1=st.integers(0, 25), s2=st.integers(0, 25),
           s3=st.integers(0, 25))
    @settings(max_examples=20, deadline=None)
    def test_triangle_inequality_between_spaces(self, s1, s2, s3):
        a = random_space(1 + s1 % 4, s1, 6)
        b = random_space(1 + s2 % 4, s2 + 100, 6)
        c = random_space(1 + s3 % 4, s3 + 200, 6)
        dab = gh_exact(a, b).distance
        dbc = gh_exact(b, c).distance
        dac = gh_exact(a, c).distance
        assert dac <= dab + dbc


class TestGhBounds:
    def test_simplex_example(self):
        lo, hi = gh_bounds(simplex(2, Fraction(1)), simplex(2, Fraction(3)))
        assert (lo, hi) == (Fraction(1), Fraction(3, 2))

    @given(sx=st.integers(0, 60), sy=st.integers(0, 60),
           nx=st.integers(1, 3), ny=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_brackets_exact_value(self, sx, sy, nx, ny):
        x = random_space(nx, sx, 9)
        y = random_space(ny, sy, 9)
        lo, hi = gh_bounds(x, y)
        d = gh_exact(x, y).distance
        assert lo <= d <= hi


class TestSimplexSimplex:
    def test_known_values(self):
        assert gh_simplex_simplex(
            Fraction(1), 2, Fraction(1), 3) == Fraction(1, 2)
        assert gh_simplex_simplex(
            Fraction(2), 3, Fraction(1), 2) == Fraction(1)
        assert gh_simplex_simplex(
            Fraction(1), 2, Fraction(1), 3) == gh_simplex_simplex(
            Fraction(1), 3, Fraction(1), 2)

    def test_equal_sizes(self):
        assert gh_simplex_simplex(
            Fraction(3), 4, Fraction(1), 4) == Fraction(1)

    def test_one_point_degenerate(self):
        assert gh_simplex_simplex(
            Fraction(5), 1, Fraction(1), 1) == 0
        assert gh_simplex_simplex(
            Fraction(5), 1, Fraction(2), 3) == Fraction(1)

    def test_matches_solver_exhaustively(self):
        for p in range(1, 4):
            for q in range(1, 4):
                for t in (Fraction(1), Fraction(1, 2)):
                    for s in (Fraction(1), Fraction(2)):
                        closed = gh_simplex_simplex(t, p, s, q)
                        solved = gh_exact(simplex(p, t), simplex(q, s))
                        assert closed == solved.distance, (t, p, s, q)

    def test_bad_params(self):
        with pytest.raises(InvalidParameterError):
            gh_simplex_simplex(Fraction(0), 2, Fraction(1), 2)
        with pytest.raises(InvalidParameterError):
            gh_simplex_simplex(Fraction(1), 0, Fraction(1), 2)


class TestSimplexVsFinite:
    def test_more_simplex_points(self):
        space = line013()
        assert gh_simplex_vs_finite(Fraction(2), 4, space) == Fraction(1)

    def test_equal_counts(self):
        space = line013()
        assert gh_simplex_vs_finite(Fraction(2), 3, space) == Fraction(1, 2)

    def test_fewer_simplex_points_unsupported(self):
        with pytest.raises(UnsupportedCaseError):
            gh_simplex_vs_finite(Fraction(2), 2, line013())

    def test_both_single_points(self):
        with pytest.raises(InvalidParameterError):
            gh_simplex_vs_finite(Fraction(2), 1, simplex(1, Fraction(1)))

    def test_matches_solver(self):
        for seed in range(8):
            space = random_space(2 + seed % 2, seed + 200, 6)
            n = space.n
            for m in (n, n + 1, n + 2):
                if m == n == 1:
                    continue
                for t in (Fraction(1), Fraction(3)):
                    closed = gh_simplex_vs_finite(t, m, space)
                    solved = gh_exact(simplex(m, t), space)
                    assert closed == solved.distance, (seed, m, t)


class TestOnePoint:
    def test_half_diameter(self):
        assert gh_one_point(line013()) == Fraction(3, 2)
        assert gh_one_point(simplex(1, Fraction(2))) == 0

    def test_matches_solver(self):
        point = simplex(1, Fraction(1))
        for seed in range(6):
            y = random_space(1 + seed % 4, seed + 300, 9)
            assert gh_one_point(y) == gh_exact(point, y).distance


class TestSimplexVsDeltaConnected:
    def test_chain_bracket(self):
        space = chain(3)
        lo, hi = gh_simplex_vs_delta_connected(
            Fraction(3), 2, space, Fraction(1))
        assert (lo, hi) == (Fraction(1), Fraction(3, 2))
        d = gh_exact(simplex(2, Fraction(3)), space).distance
        assert lo <= d <= hi

    def test_fine_chain_bracket(self):
        space = chain(5, Fraction(1, 4))
        lo, hi = gh_simplex_vs_delta_connected(
            Fraction(2), 3, space, Fraction(1, 4))
        assert (lo, hi) == (Fraction(7, 8), Fraction(1))
        d = gh_exact(simplex(3, Fraction(2)), space).distance
        assert lo <= d <= hi

    def test_not_connected(self):
        with pytest.raises(NotDeltaConnectedError):
            gh_simplex_vs_delta_connected(
                Fraction(4), 2, line013(), Fraction(1))

    def test_diameter_exceeds_t(self):
        with pytest.raises(DiameterExceedsTError):
            gh_simplex_vs_delta_connected(
                Fraction(2), 2, line013(), Fraction(2))

    def test_one_point_simplex_rejected(self):
        with pytest.raises(InvalidParameterError):
            gh_simplex_vs_delta_connected(
                Fraction(3), 1, chain(3), Fraction(1))

    def test_delta_bounds_checked(self):
        with pytest.raises(InvalidParameterError):
            gh_simplex_vs_delta_connected(
                Fraction(3), 2, chain(3), Fraction(-1))
        with pytest.raises(NotDeltaConnectedError):
            gh_simplex_vs_delta_connected(
                Fraction(3), 2, chain(3), Fraction(0))


class TestInducedCorrespondence:
    def test_full_between_lines(self):
        x = line013()
        y = chain(2)
        corr = full_correspondence(3, 2)
        lifted = induced_correspondence(corr, x, y)
        hx = build_hyperspace(x)
        hy = build_hyperspace(y)
        assert lifted.n_x == 7 and lifted.n_y == 3
        assert (distortion(lifted, hx.metric, hy.metric)
                <= distortion(corr, x, y))

    def test_injection_preserves_zero(self):
        space = line013()
        corr = Correspondence(
            frozenset({(0, 0), (1, 1), (2, 2)}), 3, 3)
        lifted = induced_correspondence(corr, space, space)
        h = build_hyperspace(space)
        assert distortion(lifted, h.metric, h.metric) == 0

    def test_never_expands_randomly(self):
        for seed in range(10):
            x = random_space(3, seed + 400, 9)
            y = random_space(3, seed + 500, 9)
            r = gh_exact(x, y)
            lifted = induced_correspondence(r.witness, x, y)
            hx = build_hyperspace(x)
            hy = build_hyperspace(y)
            assert (distortion(lifted, hx.metric, hy.metric)
                    <= distortion(r.witness, x, y))

    def test_member_indexing_matches_bitmask_rule(self):
        x = chain(2)
        y = chain(2)
        corr = Correspondence(frozenset({(0, 0), (1, 1)}), 2, 2)
        lifted = induced_correspondence(corr, x, y)
        assert (0, 0) in lifted.pairs
        assert (2, 2) in lifted.pairs


class TestHyperspaceNonexpansion:
    def test_small_random_pairs(self):
        for seed in range(8):
            x = random_space(1 + seed % 3, seed + 600, 9)
            y = random_space(1 + (seed * 7) % 3, seed + 700, 9)
            base = gh_exact(x, y).distance
            hx = build_hyperspace(x)
            hy = build_hyperspace(y)
            lifted = gh_exact(hx.metric, hy.metric).distance
            assert lifted <= base

    def test_diam_eps_lift(self):
        space = random_space(4, 800, 9)
        h = build_hyperspace(space)
        assert diam_eps(h.metric) == diam_eps(space)


def _lift(space):
    return build_hyperspace(space).metric


def _reference_masks(x, y, limit):
    """M[u][w][val] straight from the definition, diagonal left out.

    Variable u < n is f(u) and u := val creates the pair (u, val); for
    u >= n it is g(u - n), creating (val, u - n).
    """
    n, m = x.n, y.n

    def pair(u, val):
        return (u, val) if u < n else (val, u - n)

    def width(u):
        return m if u < n else n

    table = {}
    for u in range(n + m):
        for w in range(n + m):
            if u == w:
                continue
            col = []
            for val in range(width(u)):
                px, py = pair(u, val)
                mask = 0
                for wval in range(width(w)):
                    qx, qy = pair(w, wval)
                    if abs(x.d[px][qx] - y.d[py][qy]) <= limit:
                        mask |= 1 << wval
                col.append(mask)
            table[u, w] = col
    return table


MASK_PAIRS = [
    (random_space(3, 71, 9), random_space(3, 72, 9)),
    (random_space(4, 73, 9), random_space(2, 74, 9)),
    (random_space(1, 75, 9), random_space(3, 76, 9)),
    (random_space(2, 77, 9), random_space(1, 78, 9)),
    (random_space(1, 79, 9), random_space(1, 80, 9)),
    (scale(random_space(3, 81, 9), Fraction(3, 2)), random_space(2, 82, 9)),
    (_lift(random_space(2, 83, 9)), _lift(random_space(3, 84, 9))),
    (_lift(random_space(1, 85, 9)), _lift(random_space(2, 86, 9))),
    # off-diagonal zeros share the diagonal's distance id
    (validate_matrix([[0, 0, 2, 3], [0, 0, 2, 3], [2, 2, 0, 1],
                      [3, 3, 1, 0]], pseudometric=True),
     random_space(3, 87, 9)),
]


class TestSearcher:
    @pytest.mark.parametrize("x, y", MASK_PAIRS)
    def test_mask_table_matches_definition(self, x, y):
        searcher = _Searcher(x, y)
        nv = x.n + y.n
        for cr, limit in enumerate(searcher.values):
            table = searcher._mask_table(cr)
            got = {(u, w): table[u][w]
                   for u in range(nv) for w in range(nv) if u != w}
            assert got == _reference_masks(x, y, limit), cr

    def test_setup_does_not_grow_with_pairs_of_pairs(self):
        # 31 x 31 lifted pairs: a table over pairs of correspondence pairs
        # would hold 31^4 cells, several MB
        for seed in (41, 43):
            x = _lift(random_space(5, seed, 9))
            y = _lift(random_space(5, seed + 1, 9))
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                searcher = _Searcher(x, y)
                retained = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert searcher.n == searcher.m == 31
            assert retained < 1 << 20, retained

    def test_search_leaves_no_cyclic_garbage(self):
        x = _lift(random_space(3, 23, 9))
        y = _lift(random_space(3, 24, 9))
        searcher = _Searcher(x, y)
        top = len(searcher.values) - 1
        gc.collect()
        gc.disable()
        try:
            assert searcher.search(top, searcher.ecc_order, 10**6)
            assert searcher.search(0, searcher.ecc_order, 10**6) is None
            try:
                searcher.search(top // 2, searcher.ecc_order, 1)
            except _BudgetExhausted:
                pass
            assert gc.collect() == 0
        finally:
            gc.enable()


# (lift?, n, seed, max_entry) for X and Y, then the expected
# (distance, status, nodes_explored, witness pairs). Node counts are
# deterministic, so any change to pruning or branching order shows here.
GOLDEN = [
    ((False, 3, 1, 9, 3, 2, 9), ("1/2", "exact", 30,
      ((0, 1), (1, 2), (2, 0)))),
    ((False, 4, 3, 9, 4, 4, 9), ("1", "exact", 42,
      ((0, 0), (1, 3), (2, 0), (3, 1), (3, 2)))),
    ((False, 5, 5, 9, 3, 6, 9), ("3/2", "exact", 40,
      ((0, 0), (1, 0), (2, 0), (3, 1), (3, 2), (4, 1)))),
    ((False, 2, 7, 9, 5, 8, 9), ("2", "exact", 44,
      ((0, 0), (0, 3), (0, 4), (1, 1), (1, 2)))),
    ((False, 6, 9, 9, 6, 10, 9), ("5/2", "exact", 3495,
      ((0, 1), (1, 1), (2, 0), (3, 1), (3, 3), (4, 2), (4, 4), (5, 3),
       (5, 5)))),
    ((False, 1, 11, 9, 4, 12, 9), ("2", "exact", 5,
      ((0, 0), (0, 1), (0, 2), (0, 3)))),
    ((False, 7, 13, 20, 7, 14, 20), ("3/2", "exact", 100,
      ((0, 4), (1, 2), (2, 2), (2, 3), (2, 5), (3, 5), (4, 0), (5, 1),
       (6, 6)))),
    ((True, 2, 21, 9, 3, 22, 9), ("3/2", "exact", 50,
      ((0, 0), (0, 3), (0, 4), (1, 1), (2, 2), (2, 5), (2, 6)))),
    ((True, 3, 23, 9, 3, 24, 9), ("3/2", "exact", 50,
      ((0, 0), (0, 1), (0, 2), (1, 0), (2, 0), (3, 3), (4, 4), (4, 5),
       (4, 6), (5, 4), (6, 4)))),
    ((True, 3, 27, 5, 3, 28, 5), ("3/2", "exact", 148,
      ((0, 0), (0, 3), (0, 4), (1, 1), (2, 2), (2, 5), (2, 6), (3, 3),
       (4, 3), (5, 3), (6, 2)))),
    ((True, 4, 31, 5, 3, 32, 5), ("1", "exact", 132,
      ((0, 3), (1, 0), (2, 4), (3, 1), (4, 5), (5, 2), (6, 6), (7, 1),
       (8, 5), (9, 2), (10, 6), (11, 1), (12, 5), (13, 2), (14, 6)))),
    ((True, 4, 33, 5, 4, 34, 5), ("1", "exact", 159,
      tuple((i, i) for i in range(15)))),
]


@pytest.mark.parametrize("spec, expected", GOLDEN)
def test_golden_answers(spec, expected):
    lift, nx, sx, ex, ny, sy, ey = spec
    x = random_space(nx, sx, ex)
    y = random_space(ny, sy, ey)
    if lift:
        x, y = _lift(x), _lift(y)
    r = gh_exact(x, y)
    got = (r.distance, r.status, r.nodes_explored, r.witness.sorted_pairs())
    distance, status, nodes, pairs = expected
    assert got == (Fraction(distance), status, nodes, pairs)
