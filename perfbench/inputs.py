"""Seeded benchmark inputs, built without mslab's own samplers.

Everything here is a pure function of its arguments, so the same
workload seed always yields the same files. The generators and the
Hausdorff lift are independent of the package under test: a change to
mslab's samplers or to its hyperspace code cannot change what the
``lift`` and ``solve`` workloads feed it.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

LIFT_POINTS = 6          # 63 hyperspace members per op
LIFT_MAX_ENTRY = 9
SOLVE_POINTS = 4         # lifted pairs are 15 x 15
SOLVE_MAX_ENTRY = 9      # integer-valued pairs
SOLVE_GP_BASE = 8        # general-position entries lie in [M, 2M)


def op_rng(workload: str, seed: int, op: int) -> random.Random:
    """Generator for one op; independent of how many ops ran before."""
    return random.Random(f"perfbench:{workload}:{seed}:{op}")


def integer_space(n: int, rng: random.Random, max_entry: int) -> list[list[int]]:
    """Integer metric: uniform symmetric entries, then shortest paths.

    The closure keeps entries in [1, max_entry] and repairs every
    triangle, so the result is always a metric.
    """
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rng.randint(1, max_entry)
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            di = d[i]
            for j in range(n):
                if dik + dk[j] < di[j]:
                    di[j] = dik + dk[j]
    return d


def general_position_space(
    n: int, rng: random.Random, base: int
) -> list[list[Fraction]]:
    """Off-diagonal entries in [base, 2 base), pairwise distinct.

    Each entry is an integer in [base, 2 base - 1] plus its own jitter
    k / (pairs + 1) with k a permutation of 1..pairs. Two entries with
    equal integer parts differ in jitter, and jitters lie in (0, 1), so
    all entries are distinct. Any two entries sum to at least 2 base,
    more than any third, so every triangle is strict without retries.
    """
    pairs = n * (n - 1) // 2
    ticks = list(range(1, pairs + 1))
    rng.shuffle(ticks)
    d = [[Fraction(0)] * n for _ in range(n)]
    t = 0
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randrange(base, 2 * base) + Fraction(ticks[t], pairs + 1)
            d[i][j] = d[j][i] = v
            t += 1
    return d


def nearest_table(d: list[list]) -> list[list]:
    """near[s][p] = distance from point p to subset bitmask s (s >= 1)."""
    n = len(d)
    near: list[list] = [[]] + [None] * ((1 << n) - 1)
    for s in range(1, 1 << n):
        low = s & -s
        q = low.bit_length() - 1
        rest = s ^ low
        if rest:
            prev = near[rest]
            near[s] = [min(prev[p], d[p][q]) for p in range(n)]
        else:
            near[s] = [d[p][q] for p in range(n)]
    return near


def bits_of(s: int) -> list[int]:
    return [p for p in range(s.bit_length()) if s >> p & 1]


def hausdorff_lift(d: list[list]) -> list[list]:
    """Hausdorff metric on all nonempty subsets, member i = bitmask i + 1."""
    n = len(d)
    count = (1 << n) - 1
    near = nearest_table(d)
    members = [bits_of(s) for s in range(count + 1)]
    zero = d[0][0]
    h = [[zero] * count for _ in range(count)]
    for a in range(1, count + 1):
        na = near[a]
        pa = members[a]
        for b in range(a + 1, count + 1):
            nb = near[b]
            v = max(max(nb[p] for p in pa), max(na[p] for p in members[b]))
            h[a - 1][b - 1] = h[b - 1][a - 1] = v
    return h


def entry_to_json(v) -> int | str:
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def entry_from_json(v) -> Fraction:
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise ValueError(f"not an exact entry: {v!r}")
    return Fraction(v)


def write_space(path: str, d: list[list]) -> None:
    doc = {"d": [[entry_to_json(v) for v in row] for row in d]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def read_matrix(path: str) -> list[list[Fraction]]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return [[entry_from_json(v) for v in row] for row in doc["d"]]


def lift_base(seed: int, op: int) -> list[list[int]]:
    return integer_space(LIFT_POINTS, op_rng("lift", seed, op), LIFT_MAX_ENTRY)


def solve_pair(seed: int, op: int) -> tuple[list[list], list[list]]:
    """Lifted 4-point pair: general position on even ops, integer on odd."""
    rng = op_rng("solve", seed, op)
    if op % 2 == 0:
        a = general_position_space(SOLVE_POINTS, rng, SOLVE_GP_BASE)
        b = general_position_space(SOLVE_POINTS, rng, SOLVE_GP_BASE)
    else:
        a = integer_space(SOLVE_POINTS, rng, SOLVE_MAX_ENTRY)
        b = integer_space(SOLVE_POINTS, rng, SOLVE_MAX_ENTRY)
    return hausdorff_lift(a), hausdorff_lift(b)


def candidate_count(a: list[list], b: list[list]) -> int:
    """Distinct |d_A - d_B| values: the solver's binary-search range."""
    av = {v for row in a for v in row}
    bv = {v for row in b for v in row}
    return len({abs(x - y) for x in av for y in bv})
