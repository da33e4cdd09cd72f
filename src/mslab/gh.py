"""Exact Gromov-Hausdorff distances between finite metric spaces.

The distance is half the least distortion over correspondences (relations
covering both point sets). Two reductions make the search exact and
finite:

* Function-pair reduction. Every correspondence contains the union of
  two function graphs: pick for each x one related y (that is f), for
  each y one related x (that is g). Dropping pairs never increases the
  distortion (it is a max over fewer terms), and graph(f) | graph(g) is
  itself a correspondence. So the minimum over all correspondences
  equals the minimum over (f, g) pairs, and the search space is finite.
* Candidate values. The distortion of any relation is a max of values
  |d_X(x, x') - d_Y(y, y')|, so the optimum lies in the finite set of
  those differences (0 included via x = x', y = y'). Feasibility
  ("is there an (f, g) pair with distortion <= c") is monotone in c,
  so a binary search over the sorted candidates pins down the optimum.

Feasibility itself is a depth-first search with forward checking:
variables are f(x) for every x then g(y) for every y, branched in
decreasing order of point eccentricity, with all domains packed into
one int and pruned by one AND per assignment. Thresholds are compared
by candidate rank, so the inner loop is pure integer work. Distances
are held as ids into each space's sorted distinct values, and every
constraint mask is read off one small id-by-id rank table (a Hausdorff
lift adds no distances).
Every assignment attempt counts as one node against the budget; on
exhaustion the best assignment found so far is returned, and half its
distortion is an upper bound instead of an answer.

The optimal witness is re-extracted at the optimal threshold with
variables in plain index order and values tried ascending, which makes
it the lexicographically smallest optimal (f, g) encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DiameterExceedsTError,
    InvalidParameterError,
    NotDeltaConnectedError,
    SizeCapExceededError,
    UnsupportedCaseError,
)
from .correspondence import Correspondence, distortion, full_correspondence
from .hyperspace import DEFAULT_SIZE_CAP
from .rational import parse_rational
from .spaces import FiniteMetricSpace, is_delta_connected

__all__ = [
    "GhResult",
    "gh_exact",
    "gh_bounds",
    "gh_simplex_simplex",
    "gh_simplex_vs_finite",
    "gh_one_point",
    "gh_simplex_vs_delta_connected",
    "induced_correspondence",
    "check_search_size",
    "DEFAULT_NODE_BUDGET",
]

DEFAULT_NODE_BUDGET = 10_000_000
# The search recurses once per variable (n + m); 800 stays well below
# Python's default limit of 1000 frames, leaving room for the caller's stack.
MAX_SEARCH_VARIABLES = 800


@dataclass(frozen=True)
class GhResult:
    """distance = distortion(witness) / 2, whatever the status.

    With status "budget_exceeded" the distance is only an upper bound:
    the witness is the last feasible assignment found before the node
    budget ran out, or the full correspondence if none was.
    """

    distance: Fraction
    witness: Correspondence
    nodes_explored: int
    status: str


class _BudgetExhausted(Exception):
    pass


def _distance_ids(d):
    """Sorted distinct entries of d, and d with each entry as its index."""
    vals = sorted({v for row in d for v in row})
    index = {v: i for i, v in enumerate(vals)}
    return vals, [[index[v] for v in row] for row in d]


class _Searcher:
    """Feasibility machinery shared by all thresholds for one (X, Y).

    d_X(x, x') is xs[ix[x][x']] for xs the sorted distinct distances of
    X, and d_Y(y, y') is ys[iy[y][y']] likewise. rank[a][b] is the rank
    of |xs[a] - ys[b]| among the candidate values, so the constraint
    between pairs (x, y) and (x', y') has rank rank[ix[x][x']][iy[y][y']].
    """

    def __init__(self, x_space: FiniteMetricSpace, y_space: FiniteMetricSpace):
        n = self.n = x_space.n
        m = self.m = y_space.n
        (xs, ix), (ys, iy) = map(_distance_ids, (x_space.d, y_space.d))
        values = self.values = sorted({abs(a - b) for a in xs for b in ys})
        index = {v: i for i, v in enumerate(values)}
        self.rank = [[index[abs(a - b)] for b in ys] for a in xs]
        self.ix, self.iy = ix, iy
        # ids grow with distance, so a row's largest id marks eccentricity
        fx = sorted(range(n), key=lambda i: (-max(ix[i]), i))
        gy = sorted(range(m), key=lambda j: (-max(iy[j]), j))
        self.ecc_order = tuple(fx) + tuple(n + j for j in gy)
        self.index_order = tuple(range(n + m))
        self.nodes = 0

    def _mask_table(self, cr: int):
        """M[u][w][val] = allowed values of variable w once u := val.

        Variables 0..n-1 are f(x) (values are Y indices), n..n+m-1 are
        g(y) (values are X indices). f(x) := y and g(y) := x both create
        the pair (x, y) and share every column: ymask[y][a] holds the y'
        with rank of |xs[a] - d_Y(y, y')| <= cr, xmask[x][b] the x' with
        rank of |d_X(x, x') - ys[b]| <= cr, so f(x') reads ymask[y] at
        ix[x][x'] and g(y') reads xmask[x] at iy[y][y']. M[u][u] is unused.
        """
        n, m = self.n, self.m
        nv = n + m
        ok = [[r <= cr for r in row] for row in self.rank]
        ymask = [[sum(1 << yp for yp, b in enumerate(row) if ok_a[b])
                  for ok_a in ok] for row in self.iy]
        xmask = [[sum(1 << xp for xp, a in enumerate(row) if ok[a][b])
                  for b in range(len(ok[0]))] for row in self.ix]
        table = [[[0] * (m if u < n else n) for _ in range(nv)]
                 for u in range(nv)]
        for x, x_ids in enumerate(self.ix):
            f_cols = table[x]
            xm = xmask[x]
            for y, y_ids in enumerate(self.iy):
                g_cols = table[n + y]
                ym = ymask[y]
                for xp, a in enumerate(x_ids):
                    f_cols[xp][y] = g_cols[xp][x] = ym[a]
                for yp, b in enumerate(y_ids):
                    f_cols[n + yp][y] = g_cols[n + yp][x] = xm[b]
        return table

    def search(self, cr: int, order: tuple[int, ...], budget: int):
        """First full assignment with distortion rank <= cr, or None.

        All domains share one int: variable w owns size[w] bits from bit
        w * width, and the bit above them stays clear. rows[var][val] has the
        masks M[var][w][val] in the fields of the variables after var in
        order and ones elsewhere; adding `full` (every field all ones)
        then carries into the spare bit of exactly the nonempty fields.
        """
        n, m, nvars = self.n, self.m, self.n + self.m
        table = self._mask_table(cr)
        size = [m] * n + [n] * m
        width = max(n, m) + 1
        full = sum(((1 << s) - 1) << (w * width) for w, s in enumerate(size))
        rows, need, settled = [None] * nvars, [0] * nvars, 0
        for k, var in enumerate(order):
            settled |= ((1 << size[var]) - 1) << (var * width)
            later = order[k + 1:]
            need[k] = sum(1 << (w * width + size[w]) for w in later)
            rows[var] = [settled | sum(table[var][w][val] << (w * width)
                                       for w in later)
                         for val in range(size[var])]
        assign = [-1] * nvars
        nodes = self.nodes

        def extend(k: int, doms: int) -> bool:
            nonlocal nodes
            if k == nvars:
                return True
            var = order[k]
            choices, spare = rows[var], need[k]
            dom = doms >> (var * width) & ((1 << size[var]) - 1)
            while dom:
                low = dom & -dom
                dom ^= low
                nodes += 1
                if nodes > budget:
                    raise _BudgetExhausted
                val = low.bit_length() - 1
                new = doms & choices[val]
                if (new + full) & spare == spare:
                    assign[var] = val
                    if extend(k + 1, new):
                        return True
            return False

        try:
            found = extend(0, full)
        finally:
            self.nodes = nodes
            # extend refers to itself; dropping it frees this probe's
            # rows now instead of at the next gc pass
            del extend
        return assign if found else None


def check_search_size(n: int, m: int) -> None:
    """Refuse n + m points above the cap before any work on them."""
    if n + m > MAX_SEARCH_VARIABLES:
        raise SizeCapExceededError(
            f"exact search takes at most {MAX_SEARCH_VARIABLES} points in all")


def _assignment_to_corr(assign, n: int, m: int) -> Correspondence:
    pairs = {(i, assign[i]) for i in range(n)}
    pairs.update((assign[n + j], j) for j in range(m))
    return Correspondence(frozenset(pairs), n, m)


def gh_exact(
    x_space: FiniteMetricSpace,
    y_space: FiniteMetricSpace,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> GhResult:
    """Exact distance, a witness correspondence realizing it, node count.

    The search starts at the diameter-difference lower bound (every
    correspondence pairs up the two diameters somehow, so no distortion
    beats |diam X - diam Y|) and never needs to test the top candidate:
    the full correspondence always realizes it.
    """
    if node_budget < 1:
        raise InvalidParameterError("node budget must be positive")
    check_search_size(x_space.n, y_space.n)
    searcher = _Searcher(x_space, y_space)
    values = searcher.values
    n, m = searcher.n, searcher.m
    # the rank of |diam X - diam Y|: the last ids are the diameters
    lo = searcher.rank[-1][-1]
    hi = len(values) - 1
    best_assign = None
    try:
        while lo < hi:
            mid = (lo + hi) // 2
            assign = searcher.search(mid, searcher.ecc_order, node_budget)
            if assign is None:
                lo = mid + 1
            else:
                hi = mid
                best_assign = assign
        assign = searcher.search(lo, searcher.index_order, node_budget)
        if assign is None:
            raise AssertionError("optimal threshold lost feasibility")
        return GhResult(
            distance=values[lo] / 2,
            witness=_assignment_to_corr(assign, n, m),
            nodes_explored=searcher.nodes,
            status="exact",
        )
    except _BudgetExhausted:
        if best_assign is not None:
            witness = _assignment_to_corr(best_assign, n, m)
        else:
            witness = full_correspondence(n, m)
        return GhResult(
            distance=distortion(witness, x_space, y_space) / 2,
            witness=witness,
            nodes_explored=searcher.nodes,
            status="budget_exceeded",
        )


def gh_bounds(
    x_space: FiniteMetricSpace, y_space: FiniteMetricSpace
) -> tuple[Fraction, Fraction]:
    """(|diam X - diam Y| / 2, max(diam X, diam Y) / 2)."""
    dx = x_space.diam()
    dy = y_space.diam()
    return abs(dx - dy) / 2, max(dx, dy) / 2


def gh_simplex_simplex(
    t: int | str | Fraction, p: int, s: int | str | Fraction, q: int
) -> Fraction:
    """Closed-form distance between simplexes with p and q points.

    A one-point simplex has diameter zero, so its nominal edge length is
    phantom and is treated as zero; after that normalization the three
    clauses below agree with exhaustive correspondence search:

    * p = q: every bijection distorts by |t - s| and nothing beats it;
    * p > q: some two x share a y (value t) and any two covered y are
      told apart by at most t (value at least s - t), a surjection
      achieves max(t, s - t);
    * p < q: mirror image, max(s, t - s).
    """
    t = parse_rational(t)
    s = parse_rational(s)
    if p < 1 or q < 1:
        raise InvalidParameterError("simplex sizes must be >= 1")
    if t <= 0 or s <= 0:
        raise InvalidParameterError("simplex parameters must be positive")
    t0 = t if p > 1 else Fraction(0)
    s0 = s if q > 1 else Fraction(0)
    if p == q:
        two_d = abs(t0 - s0)
    elif p > q:
        two_d = max(t0, s0 - t0)
    else:
        two_d = max(s0, t0 - s0)
    return two_d / 2


def gh_simplex_vs_finite(
    t: int | str | Fraction, m: int, space: FiniteMetricSpace
) -> Fraction:
    """Closed-form distance between the m-point simplex t and a space M.

    Covers m > #M (max(t, diam M - t) halved) and m = #M with #M >= 2
    (max(t - eps M, diam M - t) halved). No closed form is implemented
    for m < #M, and m = #M = 1 has an infinite eps; both raise.
    """
    t = parse_rational(t)
    if t <= 0:
        raise InvalidParameterError("t must be positive")
    if m < 1:
        raise InvalidParameterError("m must be >= 1")
    n = space.n
    if m < n:
        raise UnsupportedCaseError(
            f"no closed form for a {m}-point simplex against {n} points")
    diam = space.diam()
    if m > n:
        return max(t, diam - t) / 2
    eps = space.eps()
    if eps is None:
        raise InvalidParameterError(
            "m = #M = 1 needs a finite eps; there is none for one point")
    return max(t - eps, diam - t) / 2


def gh_one_point(y_space: FiniteMetricSpace) -> Fraction:
    """Distance from the one-point space: half the diameter."""
    return y_space.diam() / 2


def gh_simplex_vs_delta_connected(
    t: int | str | Fraction,
    p: int,
    x_space: FiniteMetricSpace,
    delta: int | str | Fraction,
) -> tuple[Fraction, Fraction]:
    """Two-sided bound ((t - delta)/2, t/2) for a delta-connected space.

    Requires p >= 2: with at least two simplex points, any correspondence
    splits X into parts, and delta-connectivity hands two parts within
    delta of each other, forcing distortion at least t - delta; the upper
    bound is the generic half-max-diameter bound, using diam X <= t.
    A one-point simplex would collapse to the one-point rule instead and
    the lower bound would be wrong, hence the precondition.
    """
    t = parse_rational(t)
    delta = parse_rational(delta)
    if p < 2:
        raise InvalidParameterError("the bound needs p >= 2")
    if t <= 0:
        raise InvalidParameterError("t must be positive")
    if delta < 0:
        raise InvalidParameterError("delta must be nonnegative")
    if not is_delta_connected(x_space, delta):
        raise NotDeltaConnectedError(
            f"space is not {delta}-connected")
    if x_space.diam() > t:
        raise DiameterExceedsTError(
            f"diam {x_space.diam()} exceeds t = {t}")
    return (t - delta) / 2, t / 2


def induced_correspondence(
    corr: Correspondence,
    x_space: FiniteMetricSpace,
    y_space: FiniteMetricSpace,
    cap: int = DEFAULT_SIZE_CAP,
) -> Correspondence:
    """Lift a correspondence to the hyperspace member indices.

    Subsets map to their relational images: each nonempty A gets the pair
    (A, corr(A)), each nonempty B gets (corr^{-1}(B), B). Member index i
    of a hyperspace is bitmask i + 1, so the lift needs only bitmask
    algebra, never a materialized hyperspace. Its distortion never
    exceeds distortion(corr) when measured in the two hyperspace metrics.
    """
    if corr.n_x != x_space.n or corr.n_y != y_space.n:
        raise InvalidParameterError(
            f"correspondence is {corr.n_x} x {corr.n_y}, "
            f"spaces are {x_space.n} and {y_space.n}")
    nx = corr.n_x
    ny = corr.n_y
    if nx > cap or ny > cap:
        raise SizeCapExceededError(
            f"hyperspace lift of {nx} x {ny} points exceeds cap {cap}")
    img = [0] * nx
    pre = [0] * ny
    for x, y in corr.pairs:
        img[x] |= 1 << y
        pre[y] |= 1 << x
    pairs = set()
    img_of = [0] * (1 << nx)
    for a in range(1, 1 << nx):
        low = a & -a
        img_of[a] = img_of[a ^ low] | img[low.bit_length() - 1]
        pairs.add((a - 1, img_of[a] - 1))
    pre_of = [0] * (1 << ny)
    for b in range(1, 1 << ny):
        low = b & -b
        pre_of[b] = pre_of[b ^ low] | pre[low.bit_length() - 1]
        pairs.add((pre_of[b] - 1, b - 1))
    return Correspondence(
        frozenset(pairs), (1 << nx) - 1, (1 << ny) - 1)
