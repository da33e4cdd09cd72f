"""Hausdorff distance between subsets and the hyperspace construction.

The hyperspace of an n-point space has one member per nonempty subset
(2^n - 1 of them), carrying the Hausdorff metric. Members are kept in
ascending bitmask order, so member index i always corresponds to bitmask
i + 1; serialization and the induced-correspondence machinery rely on
that order.

Everything works unchanged on pseudometrics: the Hausdorff formulas use
only min and max of existing distances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    EmptyTupleError,
    InvalidParameterError,
    LengthMismatchError,
    SizeCapExceededError,
)
from .spaces import FiniteMetricSpace, Subset, _check_subset, iter_bits, validate_matrix

__all__ = [
    "Hyperspace",
    "GammaMap",
    "GammaCheckReport",
    "hausdorff_distance",
    "build_hyperspace",
    "gamma_map",
    "subset_to_hyperspace_distance",
    "check_gamma_identities",
    "verify_embedding_theorem",
    "projection_lipschitz_check",
    "DEFAULT_SIZE_CAP",
    "DEFAULT_ENUM_CAP",
]

DEFAULT_SIZE_CAP = 12
DEFAULT_ENUM_CAP = 1 << 20


def _directed(d, a_idx, b_idx) -> Fraction:
    # sup over a of inf over b of d[a][b]
    worst = None
    for a in a_idx:
        row = d[a]
        best = None
        for b in b_idx:
            v = row[b]
            if best is None or v < best:
                best = v
        if worst is None or best > worst:
            worst = best
    return worst


def _hausdorff(d, a_idx, b_idx) -> Fraction:
    return max(_directed(d, a_idx, b_idx), _directed(d, b_idx, a_idx))


def hausdorff_distance(
    space: FiniteMetricSpace, a: Subset, b: Subset
) -> Fraction:
    """max of the two directed sup-min distances between a and b."""
    _check_subset(space, a)
    _check_subset(space, b)
    return _hausdorff(space.d, a.indices(), b.indices())


@dataclass(frozen=True)
class Hyperspace:
    """All nonempty subsets of a base space under the Hausdorff metric."""

    base: FiniteMetricSpace
    members: tuple[Subset, ...]
    metric: FiniteMetricSpace


def build_hyperspace(
    space: FiniteMetricSpace, cap: int = DEFAULT_SIZE_CAP
) -> Hyperspace:
    """Materialize the hyperspace; refuses base spaces larger than cap.

    The metric matrix is (2^n - 1) squared, so the cap guards against
    accidental blowups. The result is validated like any other matrix;
    for a valid base metric the Hausdorff triangle inequality always
    holds, and a pseudometric base yields a pseudometric hyperspace.
    """
    n = space.n
    if n > cap:
        raise SizeCapExceededError(f"hyperspace of {n} points exceeds cap {cap}")
    count = (1 << n) - 1
    members = tuple(Subset(bits, n) for bits in range(1, count + 1))
    idx = [None] + [tuple(iter_bits(bits)) for bits in range(1, count + 1)]
    d = space.d
    rows: list[list[Fraction]] = [[Fraction(0)] * count for _ in range(count)]
    for i in range(1, count + 1):
        ai = idx[i]
        for j in range(i + 1, count + 1):
            bi = idx[j]
            h = _hausdorff(d, ai, bi)
            rows[i - 1][j - 1] = h
            rows[j - 1][i - 1] = h
    metric = validate_matrix(rows, pseudometric=space.pseudometric)
    return Hyperspace(base=space, members=members, metric=metric)


@dataclass(frozen=True, eq=True)
class GammaMap:
    """Nearest-point assignment from a subset X into a subset Y.

    Ties are broken toward the lowest Y index, so the map is a pure
    function of (space, x, y).
    """

    source: Subset
    target: Subset
    assignment: tuple[tuple[int, int], ...]

    def __call__(self, x: int) -> int:
        for a, b in self.assignment:
            if a == x:
                return b
        raise InvalidParameterError(f"{x} is not in the source subset")

    def image_bits(self, sub_bits: int) -> int:
        bits = 0
        for a, b in self.assignment:
            if sub_bits >> a & 1:
                bits |= 1 << b
        return bits


def gamma_map(space: FiniteMetricSpace, x: Subset, y: Subset) -> GammaMap:
    """For each point of x, its nearest point of y (lowest index on ties).

    x and y may overlap; disjointness is not required.
    """
    _check_subset(space, x)
    _check_subset(space, y)
    d = space.d
    yi = y.indices()
    assignment = []
    for a in x:
        row = d[a]
        best = yi[0]
        best_v = row[best]
        for b in yi[1:]:
            v = row[b]
            if v < best_v:
                best, best_v = b, v
        assignment.append((a, best))
    return GammaMap(source=x, target=y, assignment=tuple(assignment))


def _submasks(bits: int):
    # every nonempty submask of bits, descending
    sub = bits
    while sub:
        yield sub
        sub = (sub - 1) & bits


def subset_to_hyperspace_distance(
    space: FiniteMetricSpace, a: Subset, y: Subset
) -> tuple[Fraction, Fraction]:
    """Distance from subset a to the family of all nonempty subsets of y.

    Returns (via_enum, via_gamma): the first minimizes the Hausdorff
    distance over every nonempty subset of y by direct enumeration, the
    second is the Hausdorff distance from a to its nearest-point image
    gamma(a). The two agree; keeping both routes makes the agreement a
    checkable fact rather than an assumption.
    """
    _check_subset(space, a)
    _check_subset(space, y)
    d = space.d
    ai = a.indices()
    best = None
    for sub in _submasks(y.bits):
        bi = tuple(iter_bits(sub))
        h = _hausdorff(d, ai, bi)
        if best is None or h < best:
            best = h
    gm = gamma_map(space, a, y)
    gbits = gm.image_bits(a.bits)
    gi = tuple(iter_bits(gbits))
    via_gamma = _hausdorff(d, ai, gi)
    return best, via_gamma


@dataclass(frozen=True)
class GammaCheckReport:
    passed: bool
    subsets_checked: int
    pairs_checked: int
    counterexample: str | None = None


def check_gamma_identities(
    space: FiniteMetricSpace,
    x: Subset,
    y: Subset,
    cap: int = DEFAULT_ENUM_CAP,
) -> GammaCheckReport:
    """Exhaustively check the nearest-point identities for x against y.

    With gamma the nearest-point map of the full x and A ranging over all
    nonempty subsets of x:

    (i)   d(a, gamma(A)) = d(a, gamma(a)) for every a in A;
    (ii)  H(A, gamma(A)) = max over a in A of d(a, gamma(a));
    (iii) H(A, B) >= H(A, gamma(A)) for every nonempty B inside y;
    (iv)  H(A, gamma(A)) <= max over all points p of x of d(p, gamma(p)).

    Stops at the first failure and reports it; otherwise reports the
    number of subsets and (A, B) pairs visited.
    """
    _check_subset(space, x)
    _check_subset(space, y)
    nx = len(x)
    ny = len(y)
    if (1 << nx) * (1 << ny) > cap:
        raise SizeCapExceededError(
            f"2^{nx} * 2^{ny} subset pairs exceed cap {cap}")
    d = space.d
    gm = gamma_map(space, x, y)
    gamma_of = dict(gm.assignment)
    pull = {a: d[a][gamma_of[a]] for a in x}
    full_bound = max(pull.values())
    subsets = 0
    pairs = 0
    for abits in _submasks(x.bits):
        subsets += 1
        ai = tuple(iter_bits(abits))
        gbits = gm.image_bits(abits)
        gi = tuple(iter_bits(gbits))
        for a in ai:
            row = d[a]
            near = min(row[g] for g in gi)
            if near != pull[a]:
                return GammaCheckReport(
                    False, subsets, pairs,
                    f"identity (i) fails at point {a}, subset bits {abits}: "
                    f"{near} != {pull[a]}")
        h_gamma = _hausdorff(d, ai, gi)
        expect = max(pull[a] for a in ai)
        if h_gamma != expect:
            return GammaCheckReport(
                False, subsets, pairs,
                f"identity (ii) fails for subset bits {abits}: "
                f"{h_gamma} != {expect}")
        if h_gamma > full_bound:
            return GammaCheckReport(
                False, subsets, pairs,
                f"bound (iv) fails for subset bits {abits}: "
                f"{h_gamma} > {full_bound}")
        for bbits in _submasks(y.bits):
            pairs += 1
            bi = tuple(iter_bits(bbits))
            h = _hausdorff(d, ai, bi)
            if h < h_gamma:
                return GammaCheckReport(
                    False, subsets, pairs,
                    f"minimality (iii) fails for subset bits {abits} "
                    f"against {bbits}: {h} < {h_gamma}")
    return GammaCheckReport(True, subsets, pairs)


def verify_embedding_theorem(
    space: FiniteMetricSpace,
    x: Subset,
    y: Subset,
    cap: int = DEFAULT_ENUM_CAP,
) -> tuple[Fraction, Fraction]:
    """(lhs, rhs): subset-family Hausdorff distance vs plain H(x, y).

    lhs is the Hausdorff distance, measured inside the hyperspace of the
    ambient space, between the family of all nonempty subsets of x and
    the family of all nonempty subsets of y. It is computed directly as
    the max of the two directed sup-min values over the subset families,
    never materializing the ambient hyperspace. The two values are equal
    for every valid ambient metric; callers compare them.
    """
    _check_subset(space, x)
    _check_subset(space, y)
    nx = len(x)
    ny = len(y)
    if (1 << nx) * (1 << ny) > cap:
        raise SizeCapExceededError(
            f"2^{nx} * 2^{ny} subset pairs exceed cap {cap}")
    d = space.d
    xsubs = [tuple(iter_bits(b)) for b in _submasks(x.bits)]
    ysubs = [tuple(iter_bits(b)) for b in _submasks(y.bits)]
    table: dict[tuple[tuple[int, ...], tuple[int, ...]], Fraction] = {}
    for ai in xsubs:
        for bi in ysubs:
            table[ai, bi] = _hausdorff(d, ai, bi)
    sup_x = max(min(table[ai, bi] for bi in ysubs) for ai in xsubs)
    sup_y = max(min(table[ai, bi] for ai in xsubs) for bi in ysubs)
    lhs = max(sup_x, sup_y)
    rhs = hausdorff_distance(space, x, y)
    return lhs, rhs


def projection_lipschitz_check(
    space: FiniteMetricSpace,
    tuple_a: Sequence[int],
    tuple_b: Sequence[int],
) -> tuple[Fraction, Fraction]:
    """(lhs, rhs) for the tuple-to-subset projection.

    lhs is the Hausdorff distance between the two index images (as sets),
    rhs is the max coordinatewise distance max_i d(a_i, b_i). lhs <= rhs
    always; callers assert the inequality.
    """
    if len(tuple_a) != len(tuple_b):
        raise LengthMismatchError(
            f"tuple lengths differ: {len(tuple_a)} vs {len(tuple_b)}")
    if not tuple_a:
        raise EmptyTupleError("tuples must be nonempty")
    a = Subset.from_indices(tuple_a, space.n)
    b = Subset.from_indices(tuple_b, space.n)
    lhs = hausdorff_distance(space, a, b)
    d = space.d
    rhs = max(d[p][q] for p, q in zip(tuple_a, tuple_b))
    return lhs, rhs
