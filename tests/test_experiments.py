from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mslab import (
    InvalidParameterError,
    gh_simplex_simplex,
    is_general_position,
    isometry_probe,
    nonexpansion_sweep,
    random_general_position_space,
    random_space,
    simplex,
    simplex_preservation_table,
    validate_matrix,
)

from helpers import are_isometric, line013


class TestGeneralPosition:
    def test_simplex_is_not(self):
        assert not is_general_position(simplex(3, Fraction(1)))

    def test_line_is_not(self):
        # 3 = 1 + 2 makes the triangle degenerate
        assert not is_general_position(line013())

    def test_scalene_strict_triangle(self):
        space = validate_matrix([[0, 3, 4], [3, 0, 5], [4, 5, 0]])
        assert is_general_position(space)

    def test_one_point(self):
        assert is_general_position(simplex(1, Fraction(1)))

    def test_sampler_output_qualifies(self):
        for seed in range(12):
            space = random_general_position_space(3, seed)
            assert is_general_position(space)
            validate_matrix(space.d)

    @given(n=st.integers(1, 8), seed=st.integers(),
           max_entry=st.integers(1, 20))
    @settings(max_examples=200, deadline=None)
    def test_sampler_always_returns_a_general_position_space(
            self, n, seed, max_entry):
        space = random_general_position_space(n, seed, max_entry)
        assert space.n == n
        assert is_general_position(space)
        assert validate_matrix(space.d) == space
        assert all(v < max_entry + 1 for row in space.d for v in row)
        assert random_general_position_space(n, seed, max_entry) == space

    def test_sampler_deterministic(self):
        assert (random_general_position_space(3, 4)
                == random_general_position_space(3, 4))


class TestNonexpansionSweep:
    def test_deterministic_report(self):
        r1 = nonexpansion_sweep(5, 3, 17, 9)
        r2 = nonexpansion_sweep(5, 3, 17, 9)
        assert r1 == r2

    def test_no_violations_on_random_pairs(self):
        report = nonexpansion_sweep(12, 3, 5, 9)
        assert report.summary.violations == 0
        assert len(report.rows) == 12
        for row in report.rows:
            if row.status == "exact":
                assert row.gap >= 0

    def test_identical_mode_gap_zero(self):
        report = nonexpansion_sweep(6, 3, 5, 9, pair_mode="identical")
        for row in report.rows:
            assert row.d_xy == 0
            assert row.d_hxhy == 0

    def test_one_point_mode_is_sharp(self):
        report = nonexpansion_sweep(6, 3, 5, 9, pair_mode="one_point")
        for row in report.rows:
            assert row.n_x == 1
            if row.status == "exact":
                assert row.gap == 0

    def test_size_bound_respected(self):
        report = nonexpansion_sweep(10, 2, 23, 9)
        for row in report.rows:
            assert row.n_x <= 2 and row.n_y <= 2

    def test_max_n_capped(self):
        with pytest.raises(InvalidParameterError):
            nonexpansion_sweep(3, 4, 1, 9)
        with pytest.raises(InvalidParameterError):
            nonexpansion_sweep(3, 0, 1, 9)

    def test_budget_marks_inconclusive(self):
        report = nonexpansion_sweep(4, 3, 5, 9, node_budget=1)
        assert all(row.status == "inconclusive" for row in report.rows)
        assert report.summary.min_gap is None


class TestIsometryProbe:
    def test_runs_and_reports(self):
        report = isometry_probe(6, 3, 9)
        assert report.kind == "isometry_probe"
        assert len(report.rows) == 6
        assert report.summary.violations == 0

    def test_gap_zero_rows_have_isometric_witness_shape(self):
        report = isometry_probe(8, 3, 31)
        for row in report.rows:
            assert row.gap >= 0

    def test_largest_gap_witness_tracked(self):
        report = isometry_probe(6, 3, 9)
        if any(row.gap > 0 for row in report.rows):
            assert report.largest_gap_witness is not None

    def test_largest_gap_witness_is_redrawn_from_its_row_seed(self):
        report = isometry_probe(6, 3, 9)
        w = report.largest_gap_witness
        conclusive = [r for r in report.rows if r.status != "inconclusive"]
        first_max = next(r for r in conclusive
                         if r.gap == report.summary.max_gap)
        assert w.pair_id == first_max.pair_id
        row = report.rows[w.pair_id]
        assert w.x == random_general_position_space(3, row.seed, 10)
        assert w.y == random_general_position_space(3, row.seed + 1, 10)

    def test_witness_spaces_not_isometric_when_gap_positive(self):
        report = isometry_probe(10, 3, 47)
        w = report.largest_gap_witness
        if w is not None and max(r.gap for r in report.rows) > 0:
            assert not are_isometric(w.x, w.y)

    def test_bad_n(self):
        with pytest.raises(InvalidParameterError):
            isometry_probe(3, 0, 1)
        with pytest.raises(InvalidParameterError):
            isometry_probe(3, 4, 1)


class TestPreservationTable:
    def test_all_rows_equal(self):
        report = simplex_preservation_table(3, [Fraction(1)])
        assert report.all_equal
        for row in report.simplex_rows:
            assert row["equal"]

    def test_simplex_rows_cover_grid(self):
        report = simplex_preservation_table(3, [Fraction(1), Fraction(2)])
        combos = {(r["p"], r["q"], r["t"], r["s"])
                  for r in report.simplex_rows}
        assert len(combos) == 3 * 3 * 2 * 2

    def test_closed_form_against_lifted_sizes(self):
        report = simplex_preservation_table(4, [Fraction(1)])
        for row in report.simplex_rows:
            p, q, t, s = row["p"], row["q"], row["t"], row["s"]
            assert row["base"] == gh_simplex_simplex(t, p, s, q)
            assert row["lifted"] == gh_simplex_simplex(
                t, 2**p - 1, s, 2**q - 1)

    def test_p_max_validated(self):
        with pytest.raises(InvalidParameterError):
            simplex_preservation_table(0, [Fraction(1)])
        with pytest.raises(InvalidParameterError):
            simplex_preservation_table(6, [Fraction(1)])

    def test_spot_rows_present(self):
        report = simplex_preservation_table(2, [Fraction(1)])
        assert report.spot_rows
        for row in report.spot_rows:
            assert row["equal"]
