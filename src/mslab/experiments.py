"""Seeded experiment drivers built on the exact solver.

All drivers are pure functions of their parameters: the same arguments
always produce the same report, down to serialization bytes. Randomness
comes only from named, string-seeded generators.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import InvalidParameterError
from .gh import (
    DEFAULT_NODE_BUDGET,
    gh_exact,
    gh_simplex_simplex,
    gh_simplex_vs_finite,
)
from .hyperspace import build_hyperspace
from .rational import parse_rational
from .spaces import (
    FiniteMetricSpace,
    random_space,
    simplex,
    validate_matrix,
)

__all__ = [
    "SweepRow",
    "SweepSummary",
    "ProbeWitness",
    "SweepReport",
    "TableReport",
    "is_general_position",
    "random_general_position_space",
    "nonexpansion_sweep",
    "isometry_probe",
    "simplex_preservation_table",
]


def is_general_position(space: FiniteMetricSpace) -> bool:
    """All nonzero distances pairwise distinct, all triangles strict."""
    n = space.n
    d = space.d
    values = [d[i][j] for i in range(n) for j in range(i + 1, n)]
    if len(set(values)) != len(values):
        return False
    for i in range(n):
        for j in range(i + 1, n):
            dij = d[i][j]
            for k in range(n):
                if k == i or k == j:
                    continue
                if dij >= d[i][k] + d[k][j]:
                    return False
    return True


def random_general_position_space(
    n: int,
    seed: int,
    max_entry: int = 10,
) -> FiniteMetricSpace:
    """Seeded general-position sample; a pure function of its arguments.

    Off-diagonal cell number k (k = 1..pairs, row by row) gets an integer
    part drawn from [lo, max_entry], lo = (max_entry + 2) // 2, plus the
    jitter k / (pairs + 1). The jitters are distinct and lie in (0, 1),
    so all entries are distinct. Any two entries sum to more than
    2*lo >= max_entry + 1, which exceeds every entry, so every triangle
    is strict.
    """
    if n < 1:
        raise InvalidParameterError(f"n must be positive, got {n}")
    if max_entry < 1:
        raise InvalidParameterError(
            f"max_entry must be positive, got {max_entry}")
    lo = (max_entry + 2) // 2
    rng = random.Random(f"mslab.gp:{n}:{seed}:{max_entry}")
    cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = [[Fraction(0)] * n for _ in range(n)]
    for k, (i, j) in enumerate(cells, 1):
        v = rng.randint(lo, max_entry) + Fraction(k, len(cells) + 1)
        m[i][j] = m[j][i] = v
    return validate_matrix(m)


@dataclass(frozen=True)
class SweepRow:
    pair_id: int
    seed: int
    n_x: int
    n_y: int
    d_xy: Fraction
    d_hxhy: Fraction
    gap: Fraction
    status: str
    witness_xy: tuple[tuple[int, int], ...]
    witness_hxhy: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class SweepSummary:
    min_gap: Fraction | None
    max_gap: Fraction | None
    violations: int


@dataclass(frozen=True)
class ProbeWitness:
    pair_id: int
    x: FiniteMetricSpace
    y: FiniteMetricSpace


@dataclass(frozen=True)
class SweepReport:
    kind: str
    params: dict
    rows: tuple[SweepRow, ...]
    summary: SweepSummary
    largest_gap_witness: ProbeWitness | None = None


_Pair = tuple[FiniteMetricSpace, FiniteMetricSpace]


def _summarize(rows: Sequence[SweepRow]) -> SweepSummary:
    gaps = [r.gap for r in rows if r.status != "inconclusive"]
    violations = sum(1 for g in gaps if g < 0)
    if not gaps:
        return SweepSummary(None, None, violations)
    return SweepSummary(min(gaps), max(gaps), violations)


def _pair_row(
    pair_id: int,
    seed: int,
    x: FiniteMetricSpace,
    y: FiniteMetricSpace,
    node_budget: int,
) -> SweepRow:
    base = gh_exact(x, y, node_budget)
    hx = build_hyperspace(x).metric
    hy = build_hyperspace(y).metric
    lifted = gh_exact(hx, hy, node_budget)
    gap = base.distance - lifted.distance
    if base.status == "exact" and lifted.status == "exact":
        status = "exact"
    elif base.status == "exact" and gap >= 0:
        # the lifted value is only an upper bound, but it already sits
        # below the base distance, which settles the comparison
        status = "upper_bound"
    else:
        status = "inconclusive"
    return SweepRow(
        pair_id=pair_id,
        seed=seed,
        n_x=x.n,
        n_y=y.n,
        d_xy=base.distance,
        d_hxhy=lifted.distance,
        gap=gap,
        status=status,
        witness_xy=base.witness.sorted_pairs(),
        witness_hxhy=lifted.witness.sorted_pairs(),
    )


def _pair_rows(
    count: int, seed: int, node_budget: int, draw: Callable[[int], _Pair]
) -> tuple[SweepRow, ...]:
    """One row per pair id; draw(sx) returns the pair seeded by sx."""
    seeds = [seed * 1_000_003 + 2 * pair_id for pair_id in range(count)]
    return tuple(_pair_row(pair_id, sx, *draw(sx), node_budget)
                 for pair_id, sx in enumerate(seeds))


def nonexpansion_sweep(
    count: int,
    max_n: int,
    seed: int,
    max_entry: int,
    *,
    pair_mode: str = "random",
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SweepReport:
    """Solve random pairs at both levels and report the gaps.

    gap = d(X, Y) - d(H(X), H(Y)) is nonnegative for every pair; the
    summary counts violations (gap < 0 among conclusive rows). Pair modes:
    "random" draws X and Y independently, "identical" forces Y = X,
    "one_point" forces X to a single point (those pairs achieve gap 0,
    which is why the bound is sharp).
    """
    if count < 0:
        raise InvalidParameterError("count must be >= 0")
    if not 1 <= max_n <= 3:
        raise InvalidParameterError(
            "max_n must be between 1 and 3 so hyperspace-level exact "
            "solving stays cheap")
    if max_entry < 1:
        raise InvalidParameterError("max_entry must be positive")
    if pair_mode not in ("random", "identical", "one_point"):
        raise InvalidParameterError(f"unknown pair mode {pair_mode!r}")
    size_rng = random.Random(
        f"mslab.sweep:{seed}:{max_n}:{max_entry}:{pair_mode}")

    def draw(sx: int) -> _Pair:
        n_x = size_rng.randint(1, max_n)
        n_y = size_rng.randint(1, max_n)
        x = (simplex(1, 1) if pair_mode == "one_point"
             else random_space(n_x, sx, max_entry))
        y = (x if pair_mode == "identical"
             else random_space(n_y, sx + 1, max_entry))
        return x, y

    rows = _pair_rows(count, seed, node_budget, draw)
    return SweepReport(
        kind="nonexpansion_sweep",
        params={
            "count": count,
            "max_n": max_n,
            "seed": seed,
            "max_entry": max_entry,
            "pair_mode": pair_mode,
        },
        rows=rows,
        summary=_summarize(rows),
    )


def isometry_probe(
    count: int,
    n: int,
    seed: int,
    *,
    max_entry: int = 10,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SweepReport:
    """Gap statistics over general-position pairs of a fixed size.

    Evidence gathering only: the report never asserts that gaps vanish,
    it just records the exact minimum and maximum gap plus the pair
    achieving the largest one (the first such among conclusive rows).
    Every pair yields one row.
    """
    if count < 1:
        raise InvalidParameterError("count must be >= 1")
    if not 1 <= n <= 3:
        raise InvalidParameterError(
            "n must be between 1 and 3 so hyperspace-level exact solving "
            "stays cheap")

    def draw(sx: int) -> _Pair:
        return (random_general_position_space(n, sx, max_entry),
                random_general_position_space(n, sx + 1, max_entry))

    rows = _pair_rows(count, seed, node_budget, draw)
    # max keeps the first of equal gaps; the sampler is pure, so the
    # row's seed re-draws its pair
    best = max((r for r in rows if r.status != "inconclusive"),
               key=lambda r: r.gap, default=None)
    largest = None if best is None else ProbeWitness(
        best.pair_id, *draw(best.seed))
    return SweepReport(
        kind="isometry_probe",
        params={
            "count": count,
            "n": n,
            "seed": seed,
            "max_entry": max_entry,
        },
        rows=rows,
        summary=_summarize(rows),
        largest_gap_witness=largest,
    )


@dataclass(frozen=True)
class TableReport:
    params: dict
    simplex_rows: tuple[dict, ...]
    finite_rows: tuple[dict, ...]
    spot_rows: tuple[dict, ...]
    all_equal: bool


def _finite_family() -> tuple[FiniteMetricSpace, ...]:
    return (
        replace(simplex(1, 1), name="point"),
        replace(random_space(2, 5, 5), name="pair"),
        replace(random_space(3, 6, 5), name="triple"),
    )


def simplex_preservation_table(
    p_max: int, t_set: Iterable[int | str | Fraction]
) -> TableReport:
    """Tabulate distances before and after passing to hyperspaces.

    The hyperspace of a p-point simplex is the (2^p - 1)-point simplex
    with the same parameter, so the closed forms evaluated at the lifted
    sizes must reproduce the base values exactly. The finite rows do the
    same for simplex-vs-space distances (with the lifted formula fed the
    hyperspace of the space), and the spot rows cross-check a corner of
    the table against the exact solver.
    """
    if not 1 <= p_max <= 5:
        raise InvalidParameterError("p_max must be between 1 and 5")
    ts = [parse_rational(t) for t in t_set]
    if not ts:
        raise InvalidParameterError("t_set must be nonempty")
    if any(t <= 0 for t in ts):
        raise InvalidParameterError("t_set entries must be positive")
    simplex_rows = []
    for p in range(1, p_max + 1):
        for q in range(1, p_max + 1):
            for t in ts:
                for s in ts:
                    base = gh_simplex_simplex(t, p, s, q)
                    lifted = gh_simplex_simplex(
                        t, (1 << p) - 1, s, (1 << q) - 1)
                    simplex_rows.append({
                        "p": p, "q": q, "t": t, "s": s,
                        "base": base, "lifted": lifted,
                        "equal": base == lifted,
                    })
    finite_rows = []
    spot_rows = []
    for space in _finite_family():
        lifted_space = build_hyperspace(space).metric
        for m in range(space.n, p_max + 1):
            if m == 1 and space.n == 1:
                continue  # m = #M = 1 has no closed form (eps is infinite)
            for t in ts:
                base = gh_simplex_vs_finite(t, m, space)
                lifted = gh_simplex_vs_finite(t, (1 << m) - 1, lifted_space)
                finite_rows.append({
                    "name": space.name, "n_points": space.n,
                    "m": m, "t": t,
                    "base": base, "lifted": lifted,
                    "equal": base == lifted,
                })
        if space.n <= 2 and p_max >= 2:
            for t in ts:
                formula_base = gh_simplex_vs_finite(t, 2, space)
                exact_base = gh_exact(simplex(2, t), space).distance
                formula_lifted = gh_simplex_vs_finite(t, 3, lifted_space)
                exact_lifted = gh_exact(simplex(3, t), lifted_space).distance
                spot_rows.append({
                    "name": space.name, "t": t,
                    "formula_base": formula_base,
                    "exact_base": exact_base,
                    "formula_lifted": formula_lifted,
                    "exact_lifted": exact_lifted,
                    "equal": formula_base == exact_base
                    and formula_lifted == exact_lifted,
                })
    all_equal = all(
        row["equal"] for row in simplex_rows + finite_rows + spot_rows)
    return TableReport(
        params={"p_max": p_max, "t_set": ts},
        simplex_rows=tuple(simplex_rows),
        finite_rows=tuple(finite_rows),
        spot_rows=tuple(spot_rows),
        all_equal=all_equal,
    )
