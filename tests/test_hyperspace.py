from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mslab import (
    EmptyTupleError,
    LengthMismatchError,
    SizeCapExceededError,
    Subset,
    TriangleViolationError,
    build_hyperspace,
    check_gamma_identities,
    diam_eps,
    gamma_map,
    hausdorff_distance,
    projection_lipschitz_check,
    random_general_position_space,
    random_space,
    simplex,
    subset_to_hyperspace_distance,
    validate_matrix,
    verify_embedding_theorem,
)

from helpers import hausdorff_brute, line013, outcome, reference_validate


def subsets_of(n: int):
    return [Subset(bits, n) for bits in range(1, 1 << n)]


class TestHausdorffDistance:
    def test_singletons_recover_base(self):
        space = line013()
        for i in range(3):
            for j in range(3):
                a = Subset(1 << i, 3)
                b = Subset(1 << j, 3)
                assert hausdorff_distance(space, a, b) == space.d[i][j]

    def test_point_vs_pair(self):
        space = line013()
        a = Subset.from_indices([0], 3)
        b = Subset.from_indices([1, 2], 3)
        assert hausdorff_distance(space, a, b) == Fraction(3)

    def test_whole_vs_point(self):
        space = line013()
        a = Subset.from_indices([0, 1, 2], 3)
        b = Subset.from_indices([0], 3)
        assert hausdorff_distance(space, a, b) == Fraction(3)

    def test_subset_zero_iff_equal(self):
        space = line013()
        for a in subsets_of(3):
            for b in subsets_of(3):
                d = hausdorff_distance(space, a, b)
                assert (d == 0) == (a.bits == b.bits)

    def test_matches_explicit_loops(self):
        space = random_space(4, 11, 9)
        for a in subsets_of(4):
            for b in subsets_of(4):
                expected = hausdorff_brute(space, a.indices(), b.indices())
                assert hausdorff_distance(space, a, b) == expected

    def test_ambient_mismatch(self):
        space = line013()
        with pytest.raises(Exception):
            hausdorff_distance(space, Subset(1, 4), Subset(1, 3))


class TestBuildHyperspace:
    def test_member_order_is_ascending_bits(self):
        h = build_hyperspace(line013())
        assert [m.bits for m in h.members] == list(range(1, 8))

    def test_metric_entries_match_pairwise_calls(self):
        space = random_space(3, 5, 9)
        h = build_hyperspace(space)
        for i, a in enumerate(h.members):
            for j, b in enumerate(h.members):
                assert h.metric.d[i][j] == hausdorff_distance(space, a, b)

    def test_diam_eps_preserved(self):
        for n in range(1, 6):
            space = random_space(n, n + 40, 9)
            h = build_hyperspace(space)
            assert diam_eps(h.metric) == diam_eps(space)

    def test_simplex_lifts_to_simplex(self):
        t = Fraction(3, 2)
        h = build_hyperspace(simplex(3, t))
        expected = simplex(7, t)
        assert h.metric.d == expected.d

    def test_metric_axioms_validated(self):
        space = random_space(4, 2, 9)
        h = build_hyperspace(space)
        validate_matrix(h.metric.d)

    def test_cap_enforced(self):
        with pytest.raises(SizeCapExceededError):
            build_hyperspace(random_space(5, 1, 9), cap=4)

    def test_pseudometric_propagates(self):
        space = validate_matrix([[0, 0], [0, 0]], pseudometric=True)
        h = build_hyperspace(space)
        assert h.metric.pseudometric


class TestLiftedValidationAtScale:
    """The lifted-matrix check on 127 and 63 members, and a planted break."""

    @pytest.mark.parametrize("space", [
        random_space(7, 3, 9),
        random_general_position_space(6, 1),
    ], ids=["int7", "frac6"])
    def test_entries_and_planted_violation(self, space):
        h = build_hyperspace(space)
        members = [m.indices() for m in h.members]
        d = h.metric.d
        size = len(d)
        assert size == (1 << space.n) - 1
        for a in range(size):
            for b in range(size):
                assert d[a][b] == hausdorff_brute(space, members[a], members[b])
        # Raising one entry past its shortest two-leg detour breaks only
        # that pair's triangle, after thousands of clean pairs in scan order
        # (row 20, not later, keeps the Fraction oracle's scan short).
        i, j = 20, size - 2
        detour = min(d[i][k] + d[k][j] for k in range(size) if k not in (i, j))
        rows = [list(row) for row in d]
        rows[i][j] = rows[j][i] = detour + Fraction(1, 7)
        got = outcome(validate_matrix, rows)
        assert got == outcome(reference_validate, rows)
        assert got[0] is TriangleViolationError and got[2][:2] == (i, j)


class TestGammaMap:
    def test_nearest_point_lowest_index_tie(self):
        space = simplex(3, Fraction(1))
        x = Subset.from_indices([0], 3)
        y = Subset.from_indices([1, 2], 3)
        g = gamma_map(space, y, x)
        assert g(1) == 0 and g(2) == 0
        g2 = gamma_map(space, x, y)
        assert g2(0) == 1

    def test_image_bits(self):
        space = line013()
        x = Subset.from_indices([0, 1], 3)
        y = Subset.from_indices([2], 3)
        g = gamma_map(space, x, y)
        assert g.image_bits(x.bits) == 0b100


class TestGammaIdentities:
    def test_line_case_passes(self):
        space = line013()
        x = Subset.from_indices([0, 1], 3)
        y = Subset.from_indices([2], 3)
        report = check_gamma_identities(space, x, y)
        assert report.passed
        assert report.subsets_checked == 3
        assert report.counterexample is None

    def test_every_pair_small_spaces(self):
        for seed in range(6):
            space = random_space(3, seed + 70, 9)
            for x in subsets_of(3):
                for y in subsets_of(3):
                    assert check_gamma_identities(space, x, y).passed

    def test_detects_broken_metric(self):
        space = validate_matrix([[0, 1], [1, 0]])
        bad = type(space)(d=((Fraction(0), Fraction(1)),
                             (Fraction(100), Fraction(0))),
                          pseudometric=True)
        x = Subset(0b01, 2)
        y = Subset(0b10, 2)
        report = check_gamma_identities(bad, x, y)
        assert not report.passed
        assert "identity (ii)" in report.counterexample


class TestSubsetToHyperspace:
    def test_point_in_line(self):
        space = line013()
        a = Subset.from_indices([0], 3)
        y = Subset.from_indices([1, 2], 3)
        assert subset_to_hyperspace_distance(space, a, y) == (
            Fraction(1), Fraction(1))

    def test_routes_agree_everywhere(self):
        space = random_space(4, 9, 9)
        for a in subsets_of(4):
            for y in subsets_of(4):
                via_enum, via_gamma = subset_to_hyperspace_distance(
                    space, a, y)
                assert via_enum == via_gamma


class TestEmbeddingTheorem:
    def test_line_example(self):
        space = line013()
        x = Subset.from_indices([0], 3)
        y = Subset.from_indices([1, 2], 3)
        lhs, rhs = verify_embedding_theorem(space, x, y)
        assert lhs == rhs == Fraction(3)

    def test_all_disjoint_pairs_in_random_space(self):
        space = random_space(4, 21, 9)
        for x in subsets_of(4):
            for y in subsets_of(4):
                if x.bits & y.bits:
                    continue
                lhs, rhs = verify_embedding_theorem(space, x, y)
                assert lhs == rhs

    def test_overlapping_subsets_allowed(self):
        space = random_space(3, 33, 9)
        x = Subset(0b011, 3)
        y = Subset(0b110, 3)
        lhs, rhs = verify_embedding_theorem(space, x, y)
        assert lhs == rhs

    @given(seed=st.integers(0, 200))
    @settings(max_examples=60, deadline=None)
    def test_random_subset_pairs(self, seed):
        import random as _random

        space = random_space(4, seed + 1000, 9)
        rng = _random.Random(seed)
        x_bits = rng.randrange(1, 16)
        y_bits = rng.randrange(1, 16)
        lhs, rhs = verify_embedding_theorem(
            space, Subset(x_bits, 4), Subset(y_bits, 4))
        assert lhs == rhs


class TestProjectionLipschitz:
    def test_distinct_tuples(self):
        space = line013()
        lhs, rhs = projection_lipschitz_check(space, (0, 1), (1, 2))
        assert (lhs, rhs) == (Fraction(2), Fraction(2))

    def test_repeats_in_tuple(self):
        space = line013()
        lhs, rhs = projection_lipschitz_check(space, (0, 0), (1, 2))
        assert (lhs, rhs) == (Fraction(3), Fraction(3))

    def test_never_expands(self):
        space = random_space(4, 77, 9)
        pts = range(4)
        for a in [(i, j) for i in pts for j in pts]:
            for b in [(i, j) for i in pts for j in pts]:
                lhs, rhs = projection_lipschitz_check(space, a, b)
                assert lhs <= rhs

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            projection_lipschitz_check(line013(), (0,), (0, 1))

    def test_empty_tuples(self):
        with pytest.raises(EmptyTupleError):
            projection_lipschitz_check(line013(), (), ())


class TestHausdorffMetricAxioms:
    @given(n=st.integers(1, 4), seed=st.integers(0, 60))
    @settings(max_examples=25, deadline=None)
    def test_triangle_on_members(self, n, seed):
        space = random_space(n, seed, 9)
        members = subsets_of(n)
        table = {
            (a.bits, b.bits): hausdorff_distance(space, a, b)
            for a in members for b in members
        }
        for a in members:
            for b in members:
                assert table[a.bits, b.bits] == table[b.bits, a.bits]
                for c in members:
                    assert (table[a.bits, b.bits]
                            <= table[a.bits, c.bits] + table[c.bits, b.bits])
