"""Correspondences between two point sets, distortion, and glued ambients."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidCorrespondenceError
from .spaces import FiniteMetricSpace, scaled_to_integers

__all__ = [
    "Correspondence",
    "Realization",
    "identity_correspondence",
    "full_correspondence",
    "distortion",
    "glue_realization",
]


@dataclass(frozen=True)
class Correspondence:
    """Relation between index ranges whose projections cover both sides."""

    pairs: frozenset[tuple[int, int]]
    n_x: int
    n_y: int

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "pairs", frozenset((int(x), int(y)) for x, y in self.pairs))
        if not self.pairs:
            raise InvalidCorrespondenceError("no pairs")
        seen_x = 0
        seen_y = 0
        for x, y in self.pairs:
            if not (0 <= x < self.n_x and 0 <= y < self.n_y):
                raise InvalidCorrespondenceError(
                    f"pair ({x}, {y}) outside {self.n_x} x {self.n_y}")
            seen_x |= 1 << x
            seen_y |= 1 << y
        if seen_x != (1 << self.n_x) - 1:
            raise InvalidCorrespondenceError("not surjective onto the first side")
        if seen_y != (1 << self.n_y) - 1:
            raise InvalidCorrespondenceError("not surjective onto the second side")

    def sorted_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.pairs))

    def __len__(self) -> int:
        return len(self.pairs)


def identity_correspondence(n: int) -> Correspondence:
    return Correspondence(frozenset((i, i) for i in range(n)), n, n)


def full_correspondence(n_x: int, n_y: int) -> Correspondence:
    return Correspondence(
        frozenset((i, j) for i in range(n_x) for j in range(n_y)), n_x, n_y)


def distortion(
    corr: Correspondence, x_space: FiniteMetricSpace, y_space: FiniteMetricSpace
) -> Fraction:
    """max |d_X(x, x') - d_Y(y, y')| over pairs (x, y), (x', y') in corr.

    For fixed x and x' the term is largest at the least or the greatest
    d_Y(y, y') over y related to x and y' related to x', so only those
    two extremes meet d_X(x, x'): the work is n_x * (#corr + n_y)
    instead of #corr squared, on the distances scaled to integers.
    """
    if corr.n_x != x_space.n or corr.n_y != y_space.n:
        raise InvalidCorrespondenceError(
            f"correspondence is {corr.n_x} x {corr.n_y}, "
            f"spaces are {x_space.n} and {y_space.n}")
    den, (dx, dy) = scaled_to_integers(x_space.d, y_space.d)
    related = [[] for _ in range(corr.n_x)]
    for x, y in corr.pairs:
        related[x].append(y)
    worst = 0
    for x, dx_row in enumerate(dx):
        # low[y'] / high[y']: least / greatest d_Y(y, y') over y ~ x
        cols = list(zip(*(dy[y] for y in related[x])))
        low = list(map(min, cols))
        high = list(map(max, cols))
        for xp in range(x, corr.n_x):
            yps = related[xp]
            c = dx_row[xp]
            worst = max(worst, c - min(map(low.__getitem__, yps)),
                        max(map(high.__getitem__, yps)) - c)
    return Fraction(worst, den)


@dataclass(frozen=True)
class Realization:
    """Two spaces embedded in one ambient space, with the hub radius used."""

    ambient: FiniteMetricSpace
    x_indices: tuple[int, ...]
    y_indices: tuple[int, ...]
    radius: Fraction


def glue_realization(
    x_space: FiniteMetricSpace,
    y_space: FiniteMetricSpace,
    corr: Correspondence,
) -> Realization:
    """Ambient metric on the disjoint union of the two inputs.

    Cross distances route through the cheapest related pair plus a hub of
    length dis(corr)/2:

        d(x, y) = min over (x', y') in corr of d_X(x, x') + r + d_Y(y', y)

    Within-side distances are copied unchanged, so both embeddings are
    isometric, and the triangle inequality holds by construction (the
    definition of distortion bounds d_X(x', x'') - d_Y(y', y'') by 2r for
    related pairs, which is exactly what the cross-cross triangles need).
    With r = 0 related points are glued at distance zero and the result
    is flagged as a pseudometric. The two embedded images always sit at
    Hausdorff distance exactly r from each other (every point has a
    related partner at distance r, and no cross distance is below r).
    """
    if corr.n_x != x_space.n or corr.n_y != y_space.n:
        raise InvalidCorrespondenceError(
            f"correspondence is {corr.n_x} x {corr.n_y}, "
            f"spaces are {x_space.n} and {y_space.n}")
    r = distortion(corr, x_space, y_space) / 2
    nx = x_space.n
    ny = y_space.n
    dx = x_space.d
    dy = y_space.d
    ps = corr.sorted_pairs()
    total = nx + ny
    rows: list[list[Fraction]] = [[Fraction(0)] * total for _ in range(total)]
    for i in range(nx):
        for j in range(nx):
            rows[i][j] = dx[i][j]
    for i in range(ny):
        for j in range(ny):
            rows[nx + i][nx + j] = dy[i][j]
    for i in range(nx):
        dxi = dx[i]
        for j in range(ny):
            cross = min(dxi[a] + r + dy[b][j] for a, b in ps)
            rows[i][nx + j] = cross
            rows[nx + j][i] = cross
    pseudo = x_space.pseudometric or y_space.pseudometric or r == 0
    labels = None
    if x_space.labels is not None and y_space.labels is not None:
        labels = x_space.labels + y_space.labels
    ambient = FiniteMetricSpace(
        tuple(tuple(row) for row in rows), pseudometric=pseudo, labels=labels)
    return Realization(
        ambient, tuple(range(nx)), tuple(range(nx, nx + ny)), r)
