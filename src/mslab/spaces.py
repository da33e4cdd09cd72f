"""Finite metric spaces with exact rational distances.

Spaces are immutable and every function here is deterministic in its
arguments, so values can be shared freely across threads or processes.

Main entry points:

* :func:`validate_matrix` checks all metric axioms and builds a space.
* :func:`simplex` builds the n-point space with one common distance.
* :func:`random_space` draws a seeded integer metric (shortest-path
  repaired, so it always satisfies the axioms).
* :class:`Subset` is a bitmask-encoded nonempty set of point indices,
  used by the hyperspace machinery and by :func:`subset_gap`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterable, Iterator, Sequence

from .errors import (
    AsymmetricMatrixError,
    EmptySubsetError,
    InvalidParameterError,
    NegativeDistanceError,
    NonzeroDiagonalError,
    TriangleViolationError,
    ZeroOffDiagonalError,
)
from .rational import parse_rational

__all__ = [
    "FiniteMetricSpace",
    "Subset",
    "parse_square_matrix",
    "validate_matrix",
    "simplex",
    "diam_eps",
    "subset_gap",
    "is_delta_connected",
    "random_space",
]


@dataclass(frozen=True, repr=False)
class FiniteMetricSpace:
    """Distance matrix plus bookkeeping; ``d[i][j]`` is the distance.

    The constructor trusts its arguments. Build untrusted matrices with
    :func:`validate_matrix`, which raises on the first violated axiom.
    ``pseudometric`` records that zero off-diagonal entries are allowed.
    """

    d: tuple[tuple[Fraction, ...], ...]
    pseudometric: bool = False
    labels: tuple[str, ...] | None = None
    name: str | None = None

    @property
    def n(self) -> int:
        return len(self.d)

    def dist(self, i: int, j: int) -> Fraction:
        return self.d[i][j]

    def diam(self) -> Fraction:
        return max(x for row in self.d for x in row)

    def eps(self) -> Fraction | None:
        """Least distance between distinct points; None for one point."""
        n = self.n
        if n < 2:
            return None
        return min(self.d[i][j] for i in range(n) for j in range(i + 1, n))

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        flag = " pseudometric" if self.pseudometric else ""
        return f"<FiniteMetricSpace n={self.n}{flag}{tag}>"


def parse_square_matrix(
    rows: Sequence[Sequence[int | str | Fraction]],
) -> tuple[tuple[Fraction, ...], ...]:
    """Parse every entry, then require a nonempty square shape."""
    parsed = tuple(tuple(parse_rational(v) for v in row) for row in rows)
    n = len(parsed)
    if n == 0:
        raise InvalidParameterError("a metric space needs at least one point")
    for i, row in enumerate(parsed):
        if len(row) != n:
            raise InvalidParameterError(
                f"row {i} has length {len(row)}, expected {n}")
    return parsed


def scaled_to_integers(*matrices) -> tuple[int, list[list[list[int]]]]:
    """Common denominator den of all entries, and each matrix times den."""
    den = math.lcm(*{x.denominator for d in matrices
                     for row in d for x in row})
    return den, [[[x.numerator * (den // x.denominator) for x in row]
                  for row in d] for d in matrices]


def validate_matrix(
    rows: Sequence[Sequence[int | str | Fraction]],
    *,
    pseudometric: bool = False,
    labels: Sequence[str] | None = None,
    name: str | None = None,
) -> FiniteMetricSpace:
    """Check every metric axiom and return the validated space.

    Scans in a fixed order (shape, diagonal, symmetry, sign, separation,
    triangle) and raises the error for the first violated axiom. With
    ``pseudometric=True`` zero off-diagonal entries are tolerated. The
    axioms are checked on a copy of the matrix scaled to integers by the
    common denominator of its entries; the space keeps the Fractions.
    """
    parsed = parse_square_matrix(rows)
    n = len(parsed)
    _, (ints,) = scaled_to_integers(parsed)
    for i in range(n):
        if ints[i][i] != 0:
            raise NonzeroDiagonalError(f"d[{i}][{i}] = {parsed[i][i]}")
    for i in range(n):
        for j in range(i + 1, n):
            if ints[i][j] != ints[j][i]:
                raise AsymmetricMatrixError(
                    f"d[{i}][{j}] = {parsed[i][j]} but d[{j}][{i}] = {parsed[j][i]}")
    for i in range(n):
        for j in range(i + 1, n):
            if ints[i][j] < 0:
                raise NegativeDistanceError(f"d[{i}][{j}] = {parsed[i][j]}")
    if not pseudometric:
        for i in range(n):
            for j in range(i + 1, n):
                if ints[i][j] == 0:
                    raise ZeroOffDiagonalError(
                        f"d[{i}][{j}] = 0 for distinct points "
                        "(pass pseudometric=True to allow)")
    for i in range(n):
        ri = ints[i]
        for j in range(i + 1, n):
            rj = ints[j]
            # k = i and k = j give exactly d(i, j) (zero diagonal and symmetry
            # are checked above), so the min trips only on a violating k.
            if min(map(add, ri, rj)) < ri[j]:
                for k in range(n):
                    if ri[j] > ri[k] + rj[k]:
                        raise TriangleViolationError(i, j, k)
    fixed_labels: tuple[str, ...] | None = None
    if labels is not None:
        fixed_labels = tuple(str(x) for x in labels)
        if len(fixed_labels) != n:
            raise InvalidParameterError(
                f"{len(fixed_labels)} labels for {n} points")
    return FiniteMetricSpace(
        parsed, pseudometric=pseudometric, labels=fixed_labels, name=name)


def simplex(n: int, t: int | str | Fraction) -> FiniteMetricSpace:
    """n points, every pair at distance t (t is unused when n = 1)."""
    if n < 1:
        raise InvalidParameterError(f"simplex needs n >= 1, got {n}")
    t = parse_rational(t)
    if t <= 0:
        raise InvalidParameterError(f"simplex needs t > 0, got {t}")
    zero = Fraction(0)
    rows = tuple(
        tuple(zero if i == j else t for j in range(n)) for i in range(n))
    return FiniteMetricSpace(rows)


def diam_eps(space: FiniteMetricSpace) -> tuple[Fraction, Fraction | None]:
    """(largest distance, smallest distance between distinct points).

    The second component is None for a one-point space: there is no pair
    of distinct points, so the infimum is over an empty set.
    """
    return space.diam(), space.eps()


@dataclass(frozen=True)
class Subset:
    """Nonempty set of point indices of an ambient space, as a bitmask."""

    bits: int
    ambient_size: int

    def __post_init__(self) -> None:
        if self.ambient_size < 1:
            raise InvalidParameterError("ambient size must be positive")
        if self.bits <= 0:
            raise EmptySubsetError("subsets must be nonempty")
        if self.bits >= 1 << self.ambient_size:
            raise InvalidParameterError(
                f"bitmask {self.bits} does not fit ambient size {self.ambient_size}")

    @classmethod
    def from_indices(cls, indices: Iterable[int], ambient_size: int) -> "Subset":
        bits = 0
        for i in indices:
            if not 0 <= i < ambient_size:
                raise InvalidParameterError(
                    f"index {i} outside 0..{ambient_size - 1}")
            bits |= 1 << i
        return cls(bits, ambient_size)

    def indices(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.bits))

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.ambient_size and bool(self.bits >> i & 1)

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.bits)


def iter_bits(bits: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _check_subset(space: FiniteMetricSpace, sub: Subset) -> None:
    if sub.ambient_size != space.n:
        raise InvalidParameterError(
            f"subset of a {sub.ambient_size}-point space used with n={space.n}")


def subset_gap(
    space: FiniteMetricSpace, a: Subset, b: Subset
) -> tuple[Fraction, Fraction]:
    """(min, max) of d(x, y) over x in a, y in b."""
    _check_subset(space, a)
    _check_subset(space, b)
    d = space.d
    values = [d[i][j] for i in a for j in b]
    return min(values), max(values)


def is_delta_connected(
    space: FiniteMetricSpace, delta: int | str | Fraction
) -> bool:
    """Whether the graph with an edge wherever d <= delta is connected.

    Equivalently: every split of the points into two nonempty parts has
    a cross pair at distance <= delta.
    """
    delta = parse_rational(delta)
    if delta < 0:
        raise InvalidParameterError(f"delta must be nonnegative, got {delta}")
    n = space.n
    if n == 1:
        return True
    d = space.d
    seen = 1
    frontier = [0]
    count = 1
    while frontier:
        i = frontier.pop()
        row = d[i]
        for j in range(n):
            if not seen >> j & 1 and row[j] <= delta:
                seen |= 1 << j
                frontier.append(j)
                count += 1
    return count == n


def random_space(n: int, seed: int, max_entry: int) -> FiniteMetricSpace:
    """Deterministic random metric with integer entries in [1, max_entry].

    Symmetric entries are drawn uniformly, then the matrix is replaced by
    its all-pairs shortest-path closure, which repairs any triangle
    violations while keeping entries integral and positive. The result is
    a pure function of (n, seed, max_entry).
    """
    if n < 1:
        raise InvalidParameterError(f"n must be positive, got {n}")
    if max_entry < 1:
        raise InvalidParameterError(
            f"max_entry must be positive, got {max_entry}")
    rng = random.Random(f"mslab.space:{n}:{seed}:{max_entry}")
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randint(1, max_entry)
            m[i][j] = m[j][i] = v
    shortest_path_closure(m)
    return validate_matrix(m)


def shortest_path_closure(m: list[list]) -> None:
    """In-place Floyd-Warshall; entries must support + and <."""
    n = len(m)
    for k in range(n):
        mk = m[k]
        for i in range(n):
            ik = m[i][k]
            mi = m[i]
            for j in range(n):
                alt = ik + mk[j]
                if alt < mi[j]:
                    mi[j] = alt
