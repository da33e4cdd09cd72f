"""Shared fixtures and independent oracles.

The brute-force routines here deliberately avoid the package's own search
code so the two can disagree.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from fractions import Fraction

from mslab import (
    AsymmetricMatrixError,
    FiniteMetricSpace,
    InvalidParameterError,
    NegativeDistanceError,
    NonzeroDiagonalError,
    TriangleViolationError,
    ZeroOffDiagonalError,
    parse_rational,
    random_space,
    validate_matrix,
)


def chain(k: int, step: Fraction = Fraction(1)) -> FiniteMetricSpace:
    """Path space: k points in a row, d(i, j) = |i - j| * step."""
    rows = [[abs(i - j) * step for j in range(k)] for i in range(k)]
    return validate_matrix(rows, name=f"chain{k}")


def scale(space: FiniteMetricSpace, c: Fraction) -> FiniteMetricSpace:
    rows = [[space.d[i][j] * c for j in range(space.n)]
            for i in range(space.n)]
    return replace(space, d=tuple(tuple(r) for r in rows))


def line013() -> FiniteMetricSpace:
    return validate_matrix([[0, 1, 3], [1, 0, 2], [3, 2, 0]], name="line013")


def brute_force_min_distortion(x_space, y_space) -> Fraction:
    """Minimum distortion over every correspondence, by raw enumeration.

    Walks all 2^(n*m) subsets of the product, keeps the two-way surjective
    ones, takes max |d_X - d_Y| over cell pairs. Only sane for n*m <= 12.
    """
    n, m = x_space.n, y_space.n
    cells = [(i, j) for i in range(n) for j in range(m)]
    best: Fraction | None = None
    for mask in range(1, 1 << (n * m)):
        rows_hit = 0
        cols_hit = 0
        chosen = []
        for idx, (i, j) in enumerate(cells):
            if mask >> idx & 1:
                rows_hit |= 1 << i
                cols_hit |= 1 << j
                chosen.append((i, j))
        if rows_hit != (1 << n) - 1 or cols_hit != (1 << m) - 1:
            continue
        worst = Fraction(0)
        for (i1, j1), (i2, j2) in itertools.combinations(chosen, 2):
            gap = abs(x_space.d[i1][i2] - y_space.d[j1][j2])
            if gap > worst:
                worst = gap
        if best is None or worst < best:
            best = worst
    assert best is not None
    return best


def are_isometric(x_space, y_space) -> bool:
    """Exact isometry test by permutation search."""
    if x_space.n != y_space.n:
        return False
    n = x_space.n
    for perm in itertools.permutations(range(n)):
        if all(x_space.d[i][j] == y_space.d[perm[i]][perm[j]]
               for i in range(n) for j in range(i + 1, n)):
            return True
    return False


def hausdorff_brute(space, a_indices, b_indices) -> Fraction:
    """Hausdorff distance spelled out with explicit min/max loops."""
    d = space.d
    forward = max(min(d[a][b] for b in b_indices) for a in a_indices)
    backward = max(min(d[a][b] for a in a_indices) for b in b_indices)
    return max(forward, backward)


def seeded_space(n: int, seed: int, max_entry: int = 9) -> FiniteMetricSpace:
    return random_space(n, seed, max_entry)


def reference_validate(rows, *, pseudometric=False, labels=None, name=None):
    """validate_matrix spelled out on Fractions, one triple at a time.

    Same scan order, errors and messages as the package's version, with
    the triangle inequality tried for every (i, j, k) directly.
    """
    parsed = tuple(tuple(parse_rational(v) for v in row) for row in rows)
    n = len(parsed)
    if n == 0:
        raise InvalidParameterError("a metric space needs at least one point")
    for i, row in enumerate(parsed):
        if len(row) != n:
            raise InvalidParameterError(
                f"row {i} has length {len(row)}, expected {n}")
    for i in range(n):
        if parsed[i][i] != 0:
            raise NonzeroDiagonalError(f"d[{i}][{i}] = {parsed[i][i]}")
    for i in range(n):
        for j in range(i + 1, n):
            if parsed[i][j] != parsed[j][i]:
                raise AsymmetricMatrixError(
                    f"d[{i}][{j}] = {parsed[i][j]} but d[{j}][{i}] = {parsed[j][i]}")
    for i in range(n):
        for j in range(i + 1, n):
            if parsed[i][j] < 0:
                raise NegativeDistanceError(f"d[{i}][{j}] = {parsed[i][j]}")
    if not pseudometric:
        for i in range(n):
            for j in range(i + 1, n):
                if parsed[i][j] == 0:
                    raise ZeroOffDiagonalError(
                        f"d[{i}][{j}] = 0 for distinct points "
                        "(pass pseudometric=True to allow)")
    for i in range(n):
        for j in range(i + 1, n):
            dij = parsed[i][j]
            for k in range(n):
                if k == i or k == j:
                    continue
                if dij > parsed[i][k] + parsed[k][j]:
                    raise TriangleViolationError(i, j, k)
    fixed_labels: tuple[str, ...] | None = None
    if labels is not None:
        fixed_labels = tuple(str(x) for x in labels)
        if len(fixed_labels) != n:
            raise InvalidParameterError(
                f"{len(fixed_labels)} labels for {n} points")
    return FiniteMetricSpace(
        parsed, pseudometric=pseudometric, labels=fixed_labels, name=name)


def outcome(validate, rows, **kwargs):
    """What a validator does on rows: ("ok", d) or (class, message, triple)."""
    try:
        space = validate(rows, **kwargs)
    except Exception as exc:
        triple = (exc.i, exc.j, exc.k) if isinstance(
            exc, TriangleViolationError) else None
        return type(exc), str(exc), triple
    return "ok", space.d
