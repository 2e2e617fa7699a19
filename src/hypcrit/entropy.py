"""Critical-exponent and covering-entropy estimation with explicit audits.

Estimates are never bare numbers: every estimate carries its window,
method and residual. Covering numbers are exact by branch and bound for
small instances (<= 24 points); `greedy_covering_count`, the deterministic
farthest-point upper bound, serves larger sets and seeds that search.
Packing numbers have an exact mode and a greedy lower-bound mode.
"""

import math
from collections import namedtuple

import numpy as np

from .errors import InsufficientDataError, NumericalLimitError
from .orbits import PlaneBall, TreeBall, _run_sum
from .space import TREE

EXACT_LIMIT = 24


class EntropyEstimate(namedtuple("EntropyEstimate", "h_hat window method residual counts_used")):
    """An exponent estimate. Its residual is, by method: regression, the
    largest absolute log residual; rank-quantile, |h - h_mid|."""

    __slots__ = ()

    def as_dict(self):
        return {
            "h_hat": self.h_hat,
            "window": list(self.window),
            "method": self.method,
            "residual": self.residual,
            "points": len(self.counts_used),
        }


def estimate_critical_exponent(counts, window):
    """Growth rate of N(T) over the window: the least-squares slope of
    log N vs T, with the largest absolute log residual reported.

    counts: list of (T, N(T)) with N positive and nondecreasing.
    """
    lo, hi = window
    pts = [(float(t), n) for t, n in counts if lo - 1e-12 <= float(t) <= hi + 1e-12]
    if any(n <= 0 for _, n in pts):
        raise ValueError("counts must be positive")
    if len(pts) < 4:
        raise InsufficientDataError("need at least 4 grid points in the window")
    for (t1, n1), (t2, n2) in zip(pts, pts[1:]):
        if t2 <= t1 or n2 < n1:
            raise ValueError("counts must be sorted with nondecreasing N")
    ts = np.array([t for t, _ in pts])
    ys = np.log([n for _, n in pts])
    slope, icept = np.polyfit(ts, ys, 1)
    resid = float(np.max(np.abs(ys - (slope * ts + icept))))
    return EntropyEstimate(max(float(slope), 0.0), (lo, hi), "regression", resid, tuple(pts))


def rank_quantile_estimate(ball, rank_window):
    """h = log(hi/lo) / (d_hi - d_lo) over the window (d_lo, d_hi), d_n the
    n-th smallest displacement of the ball and (lo, hi) = rank_window;
    h_mid takes the count round(sqrt(lo hi)) for hi. Every family member
    is measured on the same group elements, so the estimate is smooth in
    the parameter (distinct displacements collapse near degeneracies)."""
    lo_n, hi_n = rank_window
    if ball.count < hi_n:
        raise InsufficientDataError("ball too shallow for rank window %r" % (rank_window,))
    d_lo, d_hi = ball.displacement_at(lo_n), ball.displacement_at(hi_n)
    h = math.log(hi_n / lo_n) / (d_hi - d_lo)
    mid = int(round(math.sqrt(lo_n * hi_n)))
    h_mid = math.log(mid / lo_n) / (ball.displacement_at(mid) - d_lo)
    return EntropyEstimate(
        h, (d_lo, d_hi), "rank-quantile", abs(h - h_mid), ((d_lo, lo_n), (d_hi, hi_n))
    )


def poincare_partial(ball, s):
    """Partial Poincare sum over the ball: sum over entries of e^{-s d(x,gx)},
    added left to right in entry order, one (displacement, count) run of
    the ball at a time (`_run_sum`), so a tree ball of any size is summed
    by its levels.
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    return _run_sum(ball, lambda d: math.exp(-s * d))


# ---------------------------------------------------------------------------
# packing and covering numbers


def _close_matrix(space, points, r):
    from .arrays import pairwise_distances

    D = pairwise_distances(space, points)
    return D <= r + 1e-12


def covering_number(space, points, r):
    """Smallest number of points of the set whose r-balls cover the set.

    Optimal by branch and bound (<= 24 points), starting from the greedy
    upper bound of `greedy_covering_count`.
    """
    n = len(points)
    if n == 0:
        return 0
    if n > EXACT_LIMIT:
        raise ValueError("exact covering limited to %d points" % EXACT_LIMIT)
    close = _close_matrix(space, points, r)
    masks = [sum(1 << j for j in range(n) if close[i, j]) for i in range(n)]
    full = (1 << n) - 1
    best = [greedy_covering_count(space, points, r)]

    def search(covered, used):
        if used >= best[0]:
            return
        if covered == full:
            best[0] = used
            return
        low = (~covered) & full
        i = (low & -low).bit_length() - 1  # lowest uncovered point
        for j in range(n):
            if close[i, j]:
                search(covered | masks[j], used + 1)

    search(0, 0)
    return best[0]


def packing_number(space, points, r, mode="exact"):
    """Largest number of pairwise 2r-separated points of the set.

    exact: optimal (max independent set in the 2r-close graph, <= 24
    points); greedy: lexicographic-first maximal separated set, a lower
    bound for the optimum.
    """
    n = len(points)
    if n == 0:
        return 0
    if mode == "exact":
        if n > EXACT_LIMIT:
            raise ValueError("exact mode limited to %d points" % EXACT_LIMIT)
        close = _close_matrix(space, points, 2 * r)
        conflict = [0] * n
        for i in range(n):
            for j in range(n):
                if i != j and close[i, j]:
                    conflict[i] |= 1 << j
        best = [0]

        def search(i, chosen_count, banned):
            if chosen_count + (n - i) <= best[0]:
                return
            if i == n:
                best[0] = max(best[0], chosen_count)
                return
            if not (banned >> i) & 1:
                search(i + 1, chosen_count + 1, banned | conflict[i])
            search(i + 1, chosen_count, banned)

        search(0, 0, 0)
        return best[0]
    if mode == "greedy":
        close = _close_matrix(space, points, 2 * r)
        chosen = []
        for i in range(n):
            if not any(close[i, j] for j in chosen):
                chosen.append(i)
        return len(chosen)
    raise ValueError("unknown mode %r" % mode)


def covering_entropy_estimate(action, hull_samples, r, window):
    """Growth rate of greedy covering numbers of hull pieces.

    hull_samples: model points with known distance to the basepoint (the
    declared sampling density is the caller's responsibility and should be
    reported alongside), or an orbit ball, whose orbit points are the
    samples. For each grid T in the window (one edge apart on trees, one
    unit on the plane) the greedy covering number of the samples within
    distance T of the basepoint is computed; the regression slope of its
    log is the covering-entropy estimate (an upper-bound-flavored
    greedy figure, not a certified value).

    A tree ball whose vertices are isolated at radius r
    (`_isolated_vertices`) is read off its counting function: every vertex
    is its own centre, so the covering number within T is N(T + 1e-9),
    level k at float(k * edge), within rounding of the kernel's distance.
    """
    space = action.space
    lo, hi = window
    grid_step = float(space.edge_length) if space.kind == TREE else 1.0
    ball = hull_samples if isinstance(hull_samples, (TreeBall, PlaneBall)) else None
    if ball is not None and _isolated_vertices(space, r):
        count_within = ball.count_within
    else:
        from .arrays import distances_to_point

        if ball is not None:
            hull_samples = ball.points()
        d0 = distances_to_point(space, hull_samples, action.basepoint)

        def count_within(t):
            sel = [p for p, d in zip(hull_samples, d0) if d <= t]
            return greedy_covering_count(space, sel, r) if sel else 0

    counts = []
    t = lo
    while t <= hi + 1e-9:
        n = count_within(t + 1e-9)
        if n:
            counts.append((t, n))
        t += grid_step
    if len(counts) < 4:
        raise InsufficientDataError(
            "window yields %d covering counts; the estimate needs 4" % len(counts)
        )
    return estimate_critical_exponent(counts, (counts[0][0], counts[-1][0]))


def _isolated_vertices(space, r):
    """Whether no r-ball of the greedy covering holds two distinct tree
    vertices.

    Distinct vertices are at least one edge L apart, and the greedy loop
    covers a point at computed distance <= r + 1e-12 from a centre. The
    computed distance of two vertices is a multiple of L up to a few ulps
    of their depths, far inside the relative margin 1e-6, so for
    r + 1e-12 < (1 - 1e-6) L every vertex becomes a centre.
    """
    return space.kind == TREE and r + 1e-12 < (1.0 - 1e-6) * float(space.edge_length)


def greedy_covering_count(space, points, r):
    """Farthest-point greedy covering number, an upper bound for the optimum.

    Centers are chosen deterministically from the first point on, with one
    distance row per center and no dense n x n matrix, so it scales to
    ~1e5 points. Distinct tree vertices isolated at radius r
    (`_isolated_vertices`) are each their own center: the count is n,
    returned without a distance row.
    """
    n = len(points)
    if n == 0:
        return 0
    if (
        _isolated_vertices(space, r)
        and all(p.offset == 0 for p in points)
        and len({p.word for p in points}) == n
    ):
        return n
    from .arrays import _distance_rows

    rows = _distance_rows(space, points)
    mind = rows(np.array([0]))[0]
    count = 1
    while mind.max() > r + 1e-12:
        nxt = int(np.argmax(mind))
        mind = np.minimum(mind, rows(np.array([nxt]))[0])
        count += 1
    return count


PackingChainReport = namedtuple("PackingChainReport", "passed pack2_cov2_pack1")


def check_packing_chain(space, points, r):
    """Exact-mode chain Pack(Y,2r) <= Cov(Y,2r) <= Pack(Y,r)."""
    p2 = packing_number(space, points, 2 * r, "exact")
    c2 = covering_number(space, points, 2 * r)
    p1 = packing_number(space, points, r, "exact")
    return PackingChainReport(p2 <= c2 <= p1, (p2, c2, p1))


#: rows is ((T, measured, bound), ...)
PackingGrowthReport = namedtuple("PackingGrowthReport", "passed P base_radius rows")


def check_packing_growth(action, hull_samples, ts, r):
    """Measured packing numbers against the growth bound P(1+P)^{T/r - 1}.

    P is the (greedy, hence lower-bound) packing number of the hull within
    radius 72*delta + 3r of the basepoint; measured values are greedy
    packing numbers of hull pieces, also lower bounds, so a pass is the
    honest direction of the inequality.
    """
    from .arrays import distances_to_point

    base = action.basepoint
    base_radius = 72.0 * action.declared_delta + 3.0 * r
    d0 = distances_to_point(action.space, hull_samples, base)
    core = [p for p, d in zip(hull_samples, d0) if d <= base_radius + 1e-9]
    P = packing_number(action.space, core, r, "greedy") if core else 1
    P = max(P, 1)
    rows = []
    ok = True
    for T in ts:
        sel = [p for p, d in zip(hull_samples, d0) if d <= T + 1e-9]
        measured = packing_number(action.space, sel, r, "greedy") if sel else 0
        try:
            bound = P * (1.0 + P) ** (T / r - 1.0)
            if bound == math.inf:
                raise OverflowError
        except OverflowError:
            raise NumericalLimitError("packing bound P (1 + P)^(T/r - 1) at P = %d, T = %.6g, "
                                      "r = %.6g is past float64" % (P, T, r)) from None
        rows.append((T, measured, bound))
        if measured > bound + 1e-9:
            ok = False
    return PackingGrowthReport(ok, P, base_radius, tuple(rows))


# ---------------------------------------------------------------------------
# explicit bounds


EquidistributionReport = namedtuple("EquidistributionReport", "K_measured h_used worst_T")


def equidistribution_constant(counts, h):
    """Smallest K with (1/K) e^{hT} <= N(T) <= K e^{hT} on the grid; an
    e^{hT} past float64 is refused."""
    if h <= 0:
        raise ValueError("h must be positive")
    K = 1.0
    worst = None
    for t, n in counts:
        if n <= 0:
            raise ValueError("counts must be positive")
        try:
            e = math.exp(h * float(t))
        except OverflowError:
            raise NumericalLimitError("e^(hT) at h = %.6g, T = %.6g is past float64"
                                      % (h, float(t))) from None
        ratio = max(n / e, e / n)
        if ratio > K:
            K = ratio
            worst = float(t)
    return EquidistributionReport(K, h, worst if worst is not None else float(counts[0][0]))


def recheck_equidistribution(counts, h, K):
    """True iff (1/K) e^{hT} <= N(T) <= K e^{hT} for every grid T."""
    for t, n in counts:
        e = math.exp(h * float(t))
        if n > K * e or n < e / K:
            return False
    return True


def check_entropy_lower_bound(h, delta, D, tolerance=1e-9):
    """h >= log 2 / (99*delta + 10*D), up to the estimator tolerance."""
    den = 99.0 * delta + 10.0 * D
    if den <= 0:
        raise ValueError("99*delta + 10*D must be positive")
    bound = math.log(2.0) / den
    return h >= bound - tolerance, bound
