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
decreasing order of point eccentricity, with domains as bitmasks pruned
after every assignment. Thresholds are compared by candidate rank, so
the inner loop is pure integer work. Assigning f(x) := y or g(y) := x
creates the correspondence pair (x, y), with id x*m + y; one table of
ranks indexed by two pair ids yields every constraint mask. Every
assignment attempt counts as one node against the budget; on exhaustion
the best assignment found so far is returned, and half its distortion
is an upper bound instead of an answer.

The optimal witness is re-extracted at the optimal threshold with
variables in plain index order and values tried ascending, which makes
it the lexicographically smallest optimal (f, g) encoding.
"""

from __future__ import annotations

from bisect import bisect_left
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


class _Searcher:
    """Feasibility machinery shared by all thresholds for one (X, Y).

    Correspondence pair (x, y) has id p = x*m + y, and rk[p][q] is the
    rank of |d_X(x, x') - d_Y(y, y')| among the candidate values, for
    q the id of (x', y').
    """

    def __init__(self, x_space: FiniteMetricSpace, y_space: FiniteMetricSpace):
        dx = x_space.d
        dy = y_space.d
        n = self.n = x_space.n
        m = self.m = y_space.n
        xvals = {v for row in dx for v in row}
        yvals = {v for row in dy for v in row}
        values = sorted({abs(a - b) for a in xvals for b in yvals})
        self.values = values
        rank = {v: i for i, v in enumerate(values)}
        pair_rank = {(a, b): rank[abs(a - b)] for a in xvals for b in yvals}
        self.rk = [
            [pair_rank[a, b] for a in dx[x] for b in dy[y]]
            for x in range(n)
            for y in range(m)
        ]
        ecc_x = [max(row) for row in dx]
        ecc_y = [max(row) for row in dy]
        fx = sorted(range(n), key=lambda i: (-ecc_x[i], i))
        gy = sorted(range(m), key=lambda j: (-ecc_y[j], j))
        self.ecc_order = tuple(fx) + tuple(n + j for j in gy)
        self.index_order = tuple(range(n + m))
        self.nodes = 0

    def _mask_table(self, cr: int):
        """M[u][w][val] = allowed values of variable w once u := val.

        Variables 0..n-1 are f(x) (values are Y indices), n..n+m-1 are
        g(y) (values are X indices). Both f(x) := y and g(y) := x create
        the pair p = x*m + y, and w may take a value exactly when the
        pair that creates has rank <= cr against p. So one mask of such
        pairs per p, kept in x-major and in y-major bit order, holds
        every column: f(x') reads bits x'*m .. x'*m+m-1 of the first,
        g(y') bits y'*n .. y'*n+n-1 of the second. The diagonal columns
        M[u][u] are never read.
        """
        n = self.n
        m = self.m
        nv = n + m
        all_x = (1 << n) - 1
        all_y = (1 << m) - 1
        xbit = [1 << q for q in range(n * m)]
        ybit = [1 << (yp * n + xp) for xp in range(n) for yp in range(m)]
        table = [[[0] * (m if u < n else n) for _ in range(nv)]
                 for u in range(nv)]
        for p, row in enumerate(self.rk):
            x, y = divmod(p, m)
            xmask = ymask = 0
            for q, r in enumerate(row):
                if r <= cr:
                    xmask |= xbit[q]
                    ymask |= ybit[q]
            f_cols = table[x]
            g_cols = table[n + y]
            for xp in range(n):
                f_cols[xp][y] = g_cols[xp][x] = xmask >> (xp * m) & all_y
            for yp in range(m):
                f_cols[n + yp][y] = g_cols[n + yp][x] = (
                    ymask >> (yp * n) & all_x)
        return table

    def search(self, cr: int, order: tuple[int, ...], budget: int):
        """First full assignment with distortion rank <= cr, or None."""
        n = self.n
        m = self.m
        table = self._mask_table(cr)
        nvars = n + m
        doms = [(1 << m) - 1] * n + [(1 << n) - 1] * m
        assign = [-1] * nvars
        suffix = [order[k + 1:] for k in range(nvars)]
        nodes = self.nodes

        def extend(k: int) -> bool:
            nonlocal nodes
            if k == nvars:
                return True
            var = order[k]
            rest = suffix[k]
            masks = table[var]
            dom = doms[var]
            while dom:
                low = dom & -dom
                dom ^= low
                val = low.bit_length() - 1
                nodes += 1
                if nodes > budget:
                    self.nodes = nodes
                    raise _BudgetExhausted
                trail = []
                ok = True
                for w in rest:
                    old = doms[w]
                    new = old & masks[w][val]
                    if new != old:
                        doms[w] = new
                        trail.append((w, old))
                        if not new:
                            ok = False
                            break
                if ok:
                    assign[var] = val
                    if extend(k + 1):
                        return True
                    assign[var] = -1
                for w, old in trail:
                    doms[w] = old
            return False

        try:
            found = extend(0)
        finally:
            self.nodes = nodes
            # extend refers to itself; dropping it frees this probe's
            # table and domains now instead of at the next gc pass
            del extend
        return list(assign) if found else None


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
    if x_space.n + y_space.n > MAX_SEARCH_VARIABLES:
        raise SizeCapExceededError(
            f"exact search takes at most {MAX_SEARCH_VARIABLES} points in all")
    searcher = _Searcher(x_space, y_space)
    values = searcher.values
    n = searcher.n
    m = searcher.m
    lo = bisect_left(values, abs(x_space.diam() - y_space.diam()))
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
    cap: int = 12,
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
