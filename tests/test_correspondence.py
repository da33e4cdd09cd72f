from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mslab import (
    Correspondence,
    InvalidCorrespondenceError,
    distortion,
    full_correspondence,
    glue_realization,
    hausdorff_distance,
    identity_correspondence,
    random_space,
    simplex,
    validate_matrix,
)

from helpers import chain, line013, scale


class TestConstruction:
    def test_identity(self):
        c = identity_correspondence(3)
        assert c.sorted_pairs() == ((0, 0), (1, 1), (2, 2))

    def test_full(self):
        c = full_correspondence(2, 3)
        assert len(c) == 6

    def test_not_surjective_left(self):
        with pytest.raises(InvalidCorrespondenceError):
            Correspondence(frozenset({(0, 0)}), 2, 1)

    def test_not_surjective_right(self):
        with pytest.raises(InvalidCorrespondenceError):
            Correspondence(frozenset({(0, 0)}), 1, 2)

    def test_out_of_range(self):
        with pytest.raises(InvalidCorrespondenceError):
            Correspondence(frozenset({(0, 2)}), 1, 2)

    def test_empty(self):
        with pytest.raises(InvalidCorrespondenceError):
            Correspondence(frozenset(), 1, 1)


class TestDistortion:
    def test_identity_is_zero(self):
        space = line013()
        assert distortion(identity_correspondence(3), space, space) == 0

    def test_full_between_simplexes(self):
        s2 = simplex(2, Fraction(1))
        s3 = simplex(3, Fraction(1))
        assert distortion(full_correspondence(2, 3), s2, s3) == Fraction(1)

    def test_reversal_of_even_chain(self):
        space = chain(3)
        c = Correspondence(frozenset({(0, 2), (1, 1), (2, 0)}), 3, 3)
        assert distortion(c, space, space) == 0

    def test_collapse_pair(self):
        space = line013()
        point = simplex(1, Fraction(1))
        c = full_correspondence(3, 1)
        assert distortion(c, space, point) == Fraction(3)

    def test_subcorrespondence_never_worse(self):
        x = random_space(3, 13, 9)
        y = random_space(3, 14, 9)
        big = full_correspondence(3, 3)
        small = Correspondence(
            frozenset({(0, 0), (1, 1), (2, 2)}), 3, 3)
        assert distortion(small, x, y) <= distortion(big, x, y)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 10**6),
           st.data())
    def test_matches_max_over_all_pairs_of_pairs(self, n, m, seed, data):
        x = random_space(n, seed, 9)
        y = scale(random_space(m, seed + 1, 9), Fraction(2, 3))
        cells = [(i, j) for i in range(n) for j in range(m)]
        pairs = ({(i, i % m) for i in range(n)}
                 | {(j % n, j) for j in range(m)}
                 | data.draw(st.sets(st.sampled_from(cells))))
        expected = max(abs(x.d[a][c] - y.d[b][e])
                       for a, b in pairs for c, e in pairs)
        corr = Correspondence(frozenset(pairs), n, m)
        assert distortion(corr, x, y) == expected


class TestGlueRealization:
    def test_images_at_claimed_distance(self):
        x = line013()
        y = random_space(2, 3, 5)
        corr = full_correspondence(3, 2)
        real = glue_realization(x, y, corr)
        assert real.radius == distortion(corr, x, y) / 2
        from mslab import Subset

        nx, ny = x.n, y.n
        a = Subset.from_indices(list(real.x_indices), nx + ny)
        b = Subset.from_indices(list(real.y_indices), nx + ny)
        assert hausdorff_distance(real.ambient, a, b) == real.radius

    def test_restrictions_are_isometric_copies(self):
        x = random_space(3, 8, 9)
        y = random_space(2, 9, 9)
        corr = full_correspondence(3, 2)
        real = glue_realization(x, y, corr)
        amb = real.ambient
        for ai, i in enumerate(real.x_indices):
            for aj, j in enumerate(real.x_indices):
                assert amb.d[i][j] == x.d[ai][aj]
        for bi, i in enumerate(real.y_indices):
            for bj, j in enumerate(real.y_indices):
                assert amb.d[i][j] == y.d[bi][bj]

    def test_ambient_satisfies_axioms(self):
        x = random_space(3, 18, 9)
        y = random_space(3, 19, 9)
        corr = full_correspondence(3, 3)
        real = glue_realization(x, y, corr)
        validate_matrix(real.ambient.d, pseudometric=real.ambient.pseudometric)

    def test_zero_distortion_gives_pseudometric(self):
        space = line013()
        real = glue_realization(space, space, identity_correspondence(3))
        assert real.radius == 0
        assert real.ambient.pseudometric
        for i, j in zip(real.x_indices, real.y_indices):
            assert real.ambient.d[i][j] == 0

    def test_unit_interval_pair(self):
        x = validate_matrix([[0, 1], [1, 0]])
        y = simplex(1, Fraction(1))
        corr = full_correspondence(2, 1)
        real = glue_realization(x, y, corr)
        assert real.radius == Fraction(1, 2)
        ax0, ax1 = real.x_indices
        (by0,) = real.y_indices
        assert real.ambient.d[ax0][by0] == Fraction(1, 2)
        assert real.ambient.d[ax1][by0] == Fraction(1, 2)

    @given(sx=st.integers(0, 30), sy=st.integers(0, 30))
    @settings(max_examples=25, deadline=None)
    def test_random_glues_are_valid(self, sx, sy):
        x = random_space(3, sx, 9)
        y = random_space(2, sy, 9)
        real = glue_realization(x, y, full_correspondence(3, 2))
        validate_matrix(real.ambient.d, pseudometric=real.ambient.pseudometric)
