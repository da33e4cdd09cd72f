from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mslab import (
    AsymmetricMatrixError,
    EmptySubsetError,
    FiniteMetricSpace,
    InvalidParameterError,
    NegativeDistanceError,
    NonzeroDiagonalError,
    Subset,
    TriangleViolationError,
    ZeroOffDiagonalError,
    diam_eps,
    format_rational,
    is_delta_connected,
    parse_rational,
    random_space,
    simplex,
    subset_gap,
    validate_matrix,
)
from mslab.spaces import shortest_path_closure

from helpers import chain, line013, outcome, reference_validate, scale


class TestParseRational:
    def test_int(self):
        assert parse_rational(3) == Fraction(3)

    def test_string_fraction(self):
        assert parse_rational("7/2") == Fraction(7, 2)

    def test_string_int(self):
        assert parse_rational("5") == Fraction(5)

    def test_negative(self):
        assert parse_rational("-3/4") == Fraction(-3, 4)

    @pytest.mark.parametrize("bad", [1.5, True, "1/0", "a/b", "", None])
    def test_rejected(self, bad):
        with pytest.raises(InvalidParameterError):
            parse_rational(bad)

    def test_format_always_slashed(self):
        assert format_rational(Fraction(0)) == "0/1"
        assert format_rational(Fraction(3)) == "3/1"
        assert format_rational(Fraction(-1, 2)) == "-1/2"

    @given(st.fractions())
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q


class TestValidateMatrix:
    def test_accepts_line(self):
        space = line013()
        assert space.n == 3
        assert space.dist(0, 2) == 3

    def test_rejects_ragged(self):
        with pytest.raises(InvalidParameterError):
            validate_matrix([[0, 1], [1, 0, 2]])

    def test_rejects_empty(self):
        with pytest.raises(InvalidParameterError):
            validate_matrix([])

    def test_nonzero_diagonal(self):
        with pytest.raises(NonzeroDiagonalError):
            validate_matrix([[1]])

    def test_asymmetric(self):
        with pytest.raises(AsymmetricMatrixError):
            validate_matrix([[0, 1], [2, 0]])

    def test_negative(self):
        with pytest.raises(NegativeDistanceError):
            validate_matrix([[0, -1], [-1, 0]])

    def test_zero_off_diagonal(self):
        with pytest.raises(ZeroOffDiagonalError):
            validate_matrix([[0, 0], [0, 0]])

    def test_zero_allowed_for_pseudometric(self):
        space = validate_matrix([[0, 0], [0, 0]], pseudometric=True)
        assert space.pseudometric

    def test_triangle_violation_reports_first_triple(self):
        with pytest.raises(TriangleViolationError) as exc:
            validate_matrix([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
        assert (exc.value.i, exc.value.j, exc.value.k) == (0, 2, 1)
        assert "d[0][2] > d[0][1] + d[1][2]" in str(exc.value)

    def test_rejects_float_entries(self):
        with pytest.raises(InvalidParameterError):
            validate_matrix([[0, 1.5], [1.5, 0]])

    def test_string_entries_parse(self):
        space = validate_matrix([[0, "1/2"], ["1/2", 0]])
        assert space.dist(0, 1) == Fraction(1, 2)

    def test_labels_length_checked(self):
        with pytest.raises(InvalidParameterError):
            validate_matrix([[0, 1], [1, 0]], labels=["a"])


@st.composite
def raw_matrices(draw):
    """Small matrices in every written form, valid or broken in any axiom.

    Symmetric draws over mixed denominators, optionally closed under
    shortest paths (a metric, or a pseudometric when a zero is drawn),
    then up to three edits: a nonzero diagonal, an asymmetric or a
    negative entry, or a symmetric change that may break a triangle.
    Each entry is written as a Fraction, an int or a "p/q" string.
    """
    n = draw(st.integers(1, 7))
    dens = st.sampled_from([1, 2, 3, 4, 6, 35])

    def value(low):
        return Fraction(draw(st.integers(low, 12)), draw(dens))

    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = value(0)
    if draw(st.booleans()):
        shortest_path_closure(m)
    edits = st.sampled_from(["diagonal", "one-sided"] + ["symmetric"] * 4)
    for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
        kind = draw(edits)
        i = draw(st.integers(0, n - 1))
        if kind == "diagonal":
            m[i][i] = value(1)
            continue
        j = (i + draw(st.integers(1, n - 1))) % n
        m[i][j] = value(-3)
        if kind == "symmetric":
            m[j][i] = m[i][j]

    def written(x):
        form = draw(st.sampled_from(["fraction", "int", "string"]))
        if form == "int" and x.denominator == 1:
            return int(x)
        if form == "string":
            c = draw(st.integers(1, 3))
            return f"{x.numerator * c}/{x.denominator * c}"
        return x

    return [[written(x) for x in row] for row in m]


class TestValidateMatrixAgainstReference:
    """The integer scan agrees with the Fraction triple loop it replaced."""

    @given(rows=raw_matrices(), pseudometric=st.booleans())
    @settings(max_examples=250, deadline=None)
    def test_same_outcome_as_reference(self, rows, pseudometric):
        got = outcome(validate_matrix, rows, pseudometric=pseudometric)
        want = outcome(reference_validate, rows, pseudometric=pseudometric)
        assert got == want


class TestSpaceBasics:
    def test_diam_eps_line(self):
        assert diam_eps(line013()) == (Fraction(3), Fraction(1))

    def test_one_point_eps_none(self):
        diam, eps = diam_eps(simplex(1, Fraction(5)))
        assert diam == 0
        assert eps is None

    def test_simplex(self):
        s = simplex(3, Fraction(1, 2))
        assert s.n == 3
        assert all(s.dist(i, j) == Fraction(1, 2)
                   for i in range(3) for j in range(3) if i != j)

    def test_simplex_bad_params(self):
        with pytest.raises(InvalidParameterError):
            simplex(0, Fraction(1))
        with pytest.raises(InvalidParameterError):
            simplex(2, Fraction(0))

    def test_frozen(self):
        with pytest.raises(AttributeError):
            line013().d = ()


class TestSubset:
    def test_from_indices(self):
        s = Subset.from_indices([0, 2], 3)
        assert s.bits == 0b101
        assert s.indices() == (0, 2)
        assert len(s) == 2
        assert 2 in s and 1 not in s

    def test_empty_rejected(self):
        with pytest.raises(EmptySubsetError):
            Subset(0, 3)
        with pytest.raises(EmptySubsetError):
            Subset.from_indices([], 3)

    def test_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            Subset.from_indices([3], 3)
        with pytest.raises(InvalidParameterError):
            Subset(0b1000, 3)

    def test_gap(self):
        space = line013()
        a = Subset.from_indices([0], 3)
        b = Subset.from_indices([1, 2], 3)
        assert subset_gap(space, a, b) == (Fraction(1), Fraction(3))

    def test_gap_overlapping(self):
        space = line013()
        a = Subset.from_indices([0, 1], 3)
        assert subset_gap(space, a, a) == (Fraction(0), Fraction(1))


class TestDeltaConnected:
    def test_chain_connectivity(self):
        c = chain(4)
        assert is_delta_connected(c, Fraction(1))
        assert not is_delta_connected(c, Fraction(1, 2))

    def test_one_point_always_connected(self):
        assert is_delta_connected(simplex(1, Fraction(1)), Fraction(0))

    def test_monotone_in_delta(self):
        space = random_space(5, 3, 9)
        deltas = sorted({space.d[i][j] for i in range(5) for j in range(5)})
        flags = [is_delta_connected(space, d) for d in deltas]
        assert flags == sorted(flags)


class TestRandomSpace:
    def test_deterministic(self):
        assert random_space(4, 7, 9) == random_space(4, 7, 9)

    def test_seed_changes_output(self):
        assert random_space(4, 7, 9) != random_space(4, 8, 9)

    def test_bad_params(self):
        with pytest.raises(InvalidParameterError):
            random_space(0, 1, 9)
        with pytest.raises(InvalidParameterError):
            random_space(3, 1, 0)

    @given(n=st.integers(1, 5), seed=st.integers(0, 50))
    @settings(max_examples=40, deadline=None)
    def test_axioms_hold(self, n, seed):
        space = random_space(n, seed, 9)
        for i in range(n):
            assert space.d[i][i] == 0
            for j in range(n):
                assert space.d[i][j] == space.d[j][i]
                if i != j:
                    assert space.d[i][j] > 0
                for k in range(n):
                    assert space.d[i][j] <= space.d[i][k] + space.d[k][j]

    @given(n=st.integers(1, 4), seed=st.integers(0, 20),
           num=st.integers(1, 5), den=st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_scaling_preserves_axioms(self, n, seed, num, den):
        space = scale(random_space(n, seed, 9), Fraction(num, den))
        validate_matrix(space.d)


class TestRepr:
    def test_mentions_size(self):
        assert "n=3" in repr(line013())

    def test_pseudometric_flagged(self):
        space = validate_matrix([[0, 0], [0, 0]], pseudometric=True)
        assert "pseudometric" in repr(space)
