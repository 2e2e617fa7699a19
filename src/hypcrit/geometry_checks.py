"""Property audits for the explicit geodesic-geometry inequalities.

Six lemma checks, each sampled over seeded random configurations:
projection (4 delta), thin triangles (4 delta), parallel rays (8 delta),
Gromov product vs rays (4 delta), quasiconvex-hull quasiconvexity
(36 delta), ray-to-line approximation (14 delta). On the tree all
constants vanish: the tree sweeps run in integers on the grid of
`space.tree_grid` (1/D), and each grid length k becomes a float once, as
k / D = float(Fraction(k, D)). The defects are exact zeros except in
product-rays at an edge length whose grid is not dyadic: with a float
delta, s = T - delta is the float T / D - delta, as in the `Fraction`
reference, which places the two ray points at that rounded s. Their
distance is then the rounding error, not 0: max_defect is 5.9e-16 at
L = 2/3, seed 1, 300 configurations. On the plane the
declared delta = log 3 is used and a pass means zero violations beyond
1e-9.

A configuration whose defect is max(min over candidates of (max over a
grid) - k delta, 0.0) reads it through `_min_max`, which stops a
candidate at its first value >= the running min and the whole set once
the min is <= k delta. Neither exit changes a report byte: the first
cannot lower the min, and after the second v - k delta <= 0 in IEEE
arithmetic for every v <= k delta, so the defect is 0.0 as for the true
min. A passing row publishes only that clipped defect, and a failing
row's worst value comes from a configuration whose min is above k delta,
where only the first exit fires and the min is exact. Wherever the
second exit fires, the min read is only an upper bound. Witness texts
are formatted only for a new worst defect.
"""

import cmath
import math
import random
import zlib
from collections import namedtuple
from fractions import Fraction
from functools import partial

from .space import (
    TREE,
    PlanePoint,
    Ray,
    _GridPoint,
    _grid_geodesic_point,
    _grid_product,
    _grid_ray_points,
    _path_distance,
    _plane_line_coords,
    _plane_ray_coords,
    _tree_point,
    dist_to_segment,
    distance,
    geodesic_point,
    gromov_product,
    plane_dist_to_ideal_line,
    plane_distance,
    plane_line_point,
    ray_point,
    tree_grid,
)
from .words import _ORDER, letters

DEFECT_TOL = 1e-9
#: depth of a tree proxy vertex, in length units and at least in letters
PROXY_DEPTH = 24


SamplingPlan = namedtuple("SamplingPlan", "count seed radius", defaults=(1000, 0, 6.0))
LemmaRow = namedtuple("LemmaRow", "name configs max_defect bound passed witness")


class InequalityReport(namedtuple("InequalityReport", "passed rows")):
    __slots__ = ()

    def row(self, name):
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)


def _letter_draws(alpha):
    """(k, table) of the canonical alphabet alpha for `_rand_word`: k =
    len(alpha).bit_length(), and table[r] the letter of rank r for each
    k-bit r, None past the alphabet."""
    k = len(alpha).bit_length()
    return k, tuple(alpha) + (None,) * ((1 << k) - len(alpha))


def _rand_word(rng, draws, length, w=""):
    """w followed by `length` random letters of the alphabet of `draws`
    (`_letter_draws`), each redrawn while it cancels the one before it. A
    draw is table[getrandbits(k)], redrawn past the alphabet: the draws of
    `rng.choice` on CPython 3.11, in one call where `choice` makes three.
    The inverse of the letter of rank r has rank r ^ 1."""
    k, table = draws
    bits = rng.getrandbits
    out, inv = list(w), _ORDER[w[-1]] ^ 1 if w else -1
    for _ in range(length):
        r = bits(k)
        while r == inv or table[r] is None:
            r = bits(k)
        out.append(table[r])
        inv = r ^ 1
    return "".join(out)


def _max_depth(space, radius):
    """Vertex depth bound of random points within the float radius."""
    return max(int(radius / float(space.edge_length)), 1)


def _rand_grid_point(rng, draws, m, max_depth):
    """A random tree point over the alphabet of `draws` with m grid units
    per edge: a vertex at most max_depth edges deep, or a point k/8 of the
    way along one of its edges."""
    w = _rand_word(rng, draws, rng.randrange(0, max_depth + 1))
    k = rng.randrange(0, 8)
    if k == 0:
        return _GridPoint(w, 0, None)
    return _GridPoint(w, k * m // 8, _rand_word(rng, draws, 1, w[-1:])[-1])


def _rand_tree_point(rng, space, radius):
    D, m = tree_grid(space)
    g = _rand_grid_point(rng, _letter_draws(letters(space.valence // 2)), m,
                         _max_depth(space, radius))
    return _tree_point(g, Fraction(1, D))


def _rand_plane_point(rng, radius):
    t = rng.uniform(0.0, radius)
    w = cmath.rect(math.tanh(t / 2.0), rng.uniform(0.0, 2.0 * math.pi))
    return PlanePoint(1j * (1 + w) / (1 - w))


def _rand_boundary(rng, space):
    """Boundary target usable as a Ray / line endpoint.

    On the tree, a proxy word of max(PROXY_DEPTH, ceil(PROXY_DEPTH / L))
    letters for edge length L: its vertex lies at least PROXY_DEPTH length
    units deep, and at L >= 1 the word keeps PROXY_DEPTH letters. A sweep
    ray at radius 6 starts at depth h < max(3, L) + L and runs at most
    8 + d(p, p') < 8 + 2 h, so it ends above depth 8 + 3 h, short of the
    proxy for every L.
    """
    if space.kind == TREE:
        draws = _letter_draws(letters(space.valence // 2))
        return _rand_word(rng, draws, _proxy_letters(space.edge_length))
    return rng.uniform(-10.0, 10.0)


def _proxy_letters(L):
    """Letters of a tree proxy word at edge length L (`_rand_boundary`)."""
    return max(PROXY_DEPTH, -(-PROXY_DEPTH * L.denominator // L.numerator))


def check_geodesic_lemmas(space, delta, plan=SamplingPlan()):
    """Sampled audit of the six explicit geodesic inequalities.

    delta must be a valid hyperbolicity constant for the space (0 for the
    tree, log 3 for the plane); a deliberately wrong delta is the intended
    negative control and shows up as positive defects.
    """
    samplers = _tree_samplers if space.kind == TREE else _plane_samplers
    rows = []
    for name, factor, sampler in samplers(space, delta, plan):
        rng = random.Random(zlib.crc32(name.encode()) ^ (plan.seed * 0x9E3779B1))
        worst = 0.0
        witness = ""
        n = 0
        for _ in range(plan.count):
            got = sampler(rng)
            if got is None:
                continue
            defect, desc = got
            n += 1
            if defect > worst:
                worst = defect
                witness = desc()
        bound = factor * delta
        rows.append(LemmaRow(name, n, worst, bound, worst <= DEFECT_TOL, witness))
    return InequalityReport(all(r.passed for r in rows), tuple(rows))


def _min_max(candidates, floor):
    """min over candidates of the max of each candidate's values, read
    only as far as it can matter to max(min_max - floor, 0.0).

    candidates is an iterable of lazy iterables of floats. A candidate
    stops at its first value >= the running min, since it cannot lower
    it; the set stops once the min is <= floor, since every min at or
    below floor gives the same 0.0. math.inf, the very object, comes back
    when there is no candidate.
    """
    best = math.inf
    for values in candidates:
        top = -math.inf
        for v in values:
            if v > top:
                top = v
                if top >= best:
                    break
        else:
            best = top
            if best <= floor:
                break
    return best


def _tree_samplers(space, delta, plan):
    """(name, bound factor, sampler) of the six lemmas on the tree.

    Points are `_GridPoint`s with offsets in units of 1/D (`tree_grid`)
    and every length is an integer count of units. A sampler returns the
    defect and its witness text as a function, which formats the points as
    `TreePoint`s only for a new worst defect. The random draws are those of
    the `TreePoint` reference the tests keep.
    """
    D, m = tree_grid(space)  # units per length, per edge
    draws = _letter_draws(letters(space.valence // 2))
    proxy = _proxy_letters(space.edge_length)
    t_grid = [k * D // 2 for k in range(17)]  # 0, 1/2, ..., 8
    depths = {r: _max_depth(space, r) for r in (plan.radius, plan.radius / 2)}

    def point(rng, radius):
        return _rand_grid_point(rng, draws, m, depths[radius])

    def boundary(rng):
        # `_rand_boundary` with the alphabet and proxy length drawn once
        return _rand_word(rng, draws, proxy)

    dist, product = partial(_path_distance, m), partial(_grid_product, m)

    def vertex(word):
        return _GridPoint(word, 0, None)

    def shift(rng):
        # k/8 with k in [-32, 32], in units
        return rng.randrange(-32, 33) * D // 8

    def split(rng, d):
        # d * k/16 with k in [0, 16]: every distance here is a multiple of
        # 16 units, as all depths and offsets drawn are
        return d * rng.randrange(0, 17) // 16

    def line_point(u, v, s):
        A, B = vertex(u), vertex(v)
        return _grid_geodesic_point(m, A, B, dist(A, B) // 2 + s)

    def tp(g):
        return _tree_point(g, Fraction(1, D))

    # 1. projection: on a tree d(x, [y, z]) = (y, z)_x
    def projection(rng):
        x, y, z = (point(rng, plan.radius) for _ in range(3))
        d = p = product(x, y, z) / D
        return max(d - p - 4.0 * delta, 0.0), lambda: "x=%r y=%r z=%r" % (tp(x), tp(y), tp(z))

    # 2. thin triangles
    def thin(rng):
        p, q, r = (point(rng, plan.radius) for _ in range(3))
        d = dist(q, r)
        if d == 0:
            return None
        t = split(rng, d)
        mid = _grid_geodesic_point(m, q, r, t)
        gap = min(product(mid, p, q), product(mid, p, r)) / D
        return max(gap - 4.0 * delta, 0.0), lambda: "p=%r q=%r r=%r t=%s" % (
            tp(p), tp(q), tp(r), Fraction(t, D)
        )

    # 3. parallel rays: the split t1 = (p', e)_p, with 0 <= t1 <= d(p, p')
    def parallel(rng):
        p = point(rng, plan.radius / 2)
        pp = point(rng, plan.radius / 2)
        e = boundary(rng)
        t1 = product(p, pp, vertex(e))
        t2 = dist(p, pp) - t1
        a = _grid_ray_points(m, p, vertex(e), [t + t1 for t in t_grid])
        b = _grid_ray_points(m, pp, vertex(e), [t + t2 for t in t_grid])
        sup = max(dist(x, y) for x, y in zip(a, b)) / D
        return max(sup - 8.0 * delta, 0.0), lambda: "p=%r p'=%r e=%r" % (tp(p), tp(pp), e)

    # 4. product vs rays at s = T - delta, T = (e1, e2)_x
    def product_rays(rng):
        x = point(rng, plan.radius)
        e1, e2 = boundary(rng), boundary(rng)
        if e1 == e2:
            return None
        T = product(x, vertex(e1), vertex(e2))
        # T - delta as the Fraction reference evaluates it: a float for a
        # float delta
        s = T / D - delta if isinstance(delta, float) else Fraction(T, D) - delta
        if float(s) <= 0:
            return None
        num, den = s.as_integer_ratio()
        if D % den:
            # s is off the grid: the TreePoint reference places the points
            a, b = ray_point(space, Ray(tp(x), e1), s), ray_point(space, Ray(tp(x), e2), s)
            gap = float(distance(space, a, b))
        else:
            su = num * (D // den)
            a, b = (_grid_ray_points(m, x, vertex(e), [su])[0] for e in (e1, e2))
            gap = dist(a, b) / D
        return max(gap - 4.0 * delta, 0.0), lambda: "x=%r e1=%r e2=%r T=%s" % (
            tp(x), e1, e2, Fraction(T, D)
        )

    # 5. quasiconvex hull
    def qc_hull(rng):
        ends = []
        while len(ends) < 4:
            e = boundary(rng)
            if e not in ends:
                ends.append(e)
        u1, v1, u2, v2 = ends
        x = line_point(u1, v1, shift(rng))
        y = line_point(u2, v2, shift(rng))
        d = dist(x, y)
        if d == 0:
            return None
        mid = _grid_geodesic_point(m, x, y, split(rng, d))
        cand = [(u1, v1), (u2, v2), (v1, v2), (v1, u2), (u1, v2), (u1, u2)]
        gap = _min_max(((product(mid, vertex(a), vertex(b)) / D,) for a, b in cand), 36.0 * delta)
        return max(gap - 36.0 * delta, 0.0), lambda: "C=%r x=%r y=%r" % (ends, tp(x), tp(y))

    # 6. ray-to-line: the line from c toward the proxy z is the ray from c
    def ray_line(rng):
        u, v, z = boundary(rng), boundary(rng), boundary(rng)
        if len({u, v, z}) < 3:
            return None
        x = line_point(u, v, shift(rng))
        Z = vertex(z)
        ray = _grid_ray_points(m, x, Z, t_grid)

        def line(c):
            s0 = product(c, Z, x)
            return _grid_ray_points(m, c, Z, [s0 + t for t in t_grid])

        # k / D is monotone in k, so the min of maxima of the quotients is
        # the quotient of the integer min of maxima
        lines = (
            (dist(r, q) / D for r, q in zip(ray, line(c))) for c in (vertex(u), vertex(v))
        )
        gap = _min_max(lines, 14.0 * delta)
        return max(gap - 14.0 * delta, 0.0), lambda: "u=%r v=%r z=%r x=%r" % (u, v, z, tp(x))

    return _lemmas(projection, thin, parallel, product_rays, qc_hull, ray_line)


def _lemmas(projection, thin, parallel, product_rays, qc_hull, ray_line):
    return [
        ("projection", 4.0, projection),
        ("thin-triangles", 4.0, thin),
        ("parallel-rays", 8.0, parallel),
        ("product-rays", 4.0, product_rays),
        ("qc-hull", 36.0, qc_hull),
        ("ray-to-line", 14.0, ray_line),
    ]


def _plane_samplers(space, delta, plan):
    """(name, bound factor, sampler) of the six lemmas on the plane.

    A sampler returns the defect and its witness text as a function, as on
    the tree. A min over candidate sides, lines or splits is `_min_max`
    over lazy coordinates, so it computes no point past the value that
    decides it.
    """

    # 1. projection: d(x, [y,z]) <= (y,z)_x + 4 delta
    def projection(rng):
        x, y, z = (_rand_plane_point(rng, plan.radius) for _ in range(3))
        d = float(dist_to_segment(space, x, y, z))
        p = float(gromov_product(space, x, y, z))
        return max(d - p - 4.0 * delta, 0.0), lambda: "x=%r y=%r z=%r" % (x, y, z)

    # 2. thin triangles: every point of [q,r] is 4 delta-close to the union
    # of the other two sides
    def thin(rng):
        p, q, r = (_rand_plane_point(rng, plan.radius) for _ in range(3))
        d = distance(space, q, r)
        if float(d) == 0.0:
            return None
        t = float(d) * rng.random()
        m = geodesic_point(space, q, r, t)
        sides = ((float(dist_to_segment(space, m, p, end)),) for end in (q, r))
        gap = _min_max(sides, 4.0 * delta)
        return max(gap - 4.0 * delta, 0.0), lambda: "p=%r q=%r r=%r t=%s" % (p, q, r, t)

    # 3. parallel rays: same ideal endpoint, origins p, p'; for some split
    # t1 + t2 = d(p,p') the rays stay 8 delta-close at matched parameters
    t_grid = [0.5 * i for i in range(17)]

    def parallel(rng):
        p = _rand_plane_point(rng, plan.radius / 2)
        pp = _rand_plane_point(rng, plan.radius / 2)
        e = _rand_boundary(rng, space)
        d0 = distance(space, p, pp)
        far = ray_point(space, Ray(p, e), 30.0)
        t1_opt = float(gromov_product(space, p, pp, far))
        # the t1_opt split first; at delta = 0 all seven are one split
        splits = dict.fromkeys(
            min(max(t1_opt + s * delta, 0.0), float(d0))
            for s in (0.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0)
        )
        splits = [(t1, d0 - t1) for t1 in splits if t1 >= 0 and d0 - t1 >= 0]
        if not splits:
            return None
        pairs = (
            map(
                plane_distance,
                _plane_ray_coords(p.z, e, [t + t1 for t in t_grid]),
                _plane_ray_coords(pp.z, e, [t + t2 for t in t_grid]),
            )
            for t1, t2 in splits
        )
        best = _min_max(pairs, 8.0 * delta)
        return max(best - 8.0 * delta, 0.0), lambda: "p=%r p'=%r e=%r" % (p, pp, e)

    # 4. product vs rays: (z,z')_x >= T implies the rays at T - delta are
    # 4 delta-close
    def product_rays(rng):
        x = _rand_plane_point(rng, plan.radius)
        e1, e2 = _rand_boundary(rng, space), _rand_boundary(rng, space)
        if e1 == e2:
            return None
        f1 = ray_point(space, Ray(x, e1), 30.0)
        f2 = ray_point(space, Ray(x, e2), 30.0)
        prod = float(gromov_product(space, x, f1, f2))
        T = prod - 0.01
        s = T - delta
        if float(s) <= 0:
            return None
        a = ray_point(space, Ray(x, e1), s)
        b = ray_point(space, Ray(x, e2), s)
        gap = float(distance(space, a, b))
        return max(gap - 4.0 * delta, 0.0), lambda: "x=%r e1=%r e2=%r T=%s" % (x, e1, e2, T)

    # 5. quasiconvex hull: a geodesic between two hull points stays within
    # 36 delta of the lines through the defining endpoints
    def qc_hull(rng):
        ends = []
        while len(ends) < 4:
            e = _rand_boundary(rng, space)
            if e not in ends:
                ends.append(e)
        u1, v1, u2, v2 = ends
        x = plane_line_point(u1, v1, space.basepoint, rng.uniform(-4, 4))
        y = plane_line_point(u2, v2, space.basepoint, rng.uniform(-4, 4))
        d = distance(space, x, y)
        if float(d) == 0.0:
            return None
        t = float(d) * rng.random()
        m = geodesic_point(space, x, y, t)
        cand = [(u1, v1), (u2, v2), (v1, v2), (v1, u2), (u1, v2), (u1, u2)]
        gap = _min_max(((plane_dist_to_ideal_line(m, a, b),) for a, b in cand), 36.0 * delta)
        return max(gap - 36.0 * delta, 0.0), lambda: "C=%r x=%r y=%r" % (ends, x, y)

    # 6. ray-to-line: the ray from a hull point x toward z in C is 14
    # delta-close, at matched parameters, to a line with endpoints in C
    def ray_line(rng):
        u = _rand_boundary(rng, space)
        v = _rand_boundary(rng, space)
        z = _rand_boundary(rng, space)
        if len({u, v, z}) < 3:
            return None
        x = plane_line_point(u, v, space.basepoint, rng.uniform(-4, 4))
        ray = list(_plane_ray_coords(x.z, z, t_grid))
        lines = (
            map(plane_distance, ray, _plane_line_coords(c, z, x.z, t_grid))
            for c in (u, v)
            if not (plane_dist_to_ideal_line(x, c, z) > 6.0 * delta + 1e-9 and delta > 0)
        )
        best = _min_max(lines, 14.0 * delta)
        if best is math.inf:
            return None
        return max(best - 14.0 * delta, 0.0), lambda: "u=%r v=%r z=%r x=%r" % (u, v, z, x)

    return _lemmas(projection, thin, parallel, product_rays, qc_hull, ray_line)
