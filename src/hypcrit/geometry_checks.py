"""Property audits for the explicit geodesic-geometry inequalities.

Six lemma checks, each sampled over seeded random configurations:
projection (4 delta), thin triangles (4 delta), parallel rays (8 delta),
Gromov product vs rays (4 delta), quasiconvex-hull quasiconvexity
(36 delta), ray-to-line approximation (14 delta). On the tree all
constants vanish and the defects are exact zeros in rational arithmetic;
on the plane the declared delta = log 3 is used and a pass means zero
violations beyond 1e-9.
"""

import cmath
import math
import random
import zlib
from dataclasses import dataclass
from fractions import Fraction

from .space import (
    PLANE,
    TREE,
    PlanePoint,
    Ray,
    TreePoint,
    dist_to_segment,
    distance,
    geodesic_point,
    gromov_product,
    plane_dist_to_ideal_line,
    plane_line_point,
    plane_line_points,
    ray_point,
    ray_points,
    tree_dist_to_word_line,
)
from .words import letters

DEFECT_TOL = 1e-9
PROXY_DEPTH = 24


@dataclass(frozen=True)
class SamplingPlan:
    count: int = 1000
    seed: int = 0
    radius: float = 6.0


@dataclass(frozen=True)
class LemmaRow:
    name: str
    configs: int
    max_defect: float
    bound: float
    passed: bool
    witness: str


@dataclass(frozen=True)
class InequalityReport:
    passed: bool
    rows: tuple

    def row(self, name):
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)


def _rand_word(rng, rank, length):
    alpha = letters(rank)
    w = []
    for _ in range(length):
        c = rng.choice(alpha)
        while w and c == w[-1].swapcase():
            c = rng.choice(alpha)
        w.append(c)
    return "".join(w)


def _rand_tree_point(rng, space, radius):
    rank = space.valence // 2
    max_depth = max(int(radius / space.edge_length), 1)
    w = _rand_word(rng, rank, rng.randrange(0, max_depth + 1))
    k = rng.randrange(0, 8)
    if k == 0:
        return TreePoint(w)
    off = Fraction(k, 8) * space.edge_length
    alpha = letters(rank)
    d = rng.choice(alpha)
    while w and d == w[-1].swapcase():
        d = rng.choice(alpha)
    return TreePoint(w, off, d)


def _rand_plane_point(rng, radius):
    t = rng.uniform(0.0, radius)
    w = cmath.rect(math.tanh(t / 2.0), rng.uniform(0.0, 2.0 * math.pi))
    return PlanePoint(1j * (1 + w) / (1 - w))


def _rand_point(rng, space, radius):
    if space.kind == TREE:
        return _rand_tree_point(rng, space, radius)
    return _rand_plane_point(rng, radius)


def _rand_boundary(rng, space):
    """Boundary target usable as a Ray / line endpoint."""
    if space.kind == TREE:
        return _rand_word(rng, space.valence // 2, PROXY_DEPTH)
    return rng.uniform(-10.0, 10.0)


def _frac_grid(lo, hi, step):
    out = []
    t = Fraction(lo)
    step = Fraction(step)
    while t <= hi:
        out.append(t)
        t += step
    return out


def _tree_line_point(space, wu, wv, s):
    return geodesic_point(space, TreePoint(wu), TreePoint(wv), s)


def check_geodesic_lemmas(space, delta, plan=SamplingPlan()):
    """Sampled audit of the six explicit geodesic inequalities.

    delta must be a valid hyperbolicity constant for the space (0 for the
    tree, log 3 for the plane); a deliberately wrong delta is the intended
    negative control and shows up as positive defects.
    """
    tree = space.kind == TREE
    rows = []

    def run(name, bound, sampler):
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
                witness = desc
        rows.append(LemmaRow(name, n, worst, bound, worst <= DEFECT_TOL, witness))

    # 1. projection: d(x, [y,z]) <= (y,z)_x + 4 delta
    def projection(rng):
        x, y, z = (_rand_point(rng, space, plan.radius) for _ in range(3))
        d = float(dist_to_segment(space, x, y, z))
        p = float(gromov_product(space, x, y, z))
        return max(d - p - 4.0 * delta, 0.0), "x=%r y=%r z=%r" % (x, y, z)

    run("projection", 4.0 * delta, projection)

    # 2. thin triangles: every point of [q,r] is 4 delta-close to the union
    # of the other two sides
    def thin(rng):
        p, q, r = (_rand_point(rng, space, plan.radius) for _ in range(3))
        d = distance(space, q, r)
        if float(d) == 0.0:
            return None
        t = d * Fraction(rng.randrange(0, 17), 16) if tree else float(d) * rng.random()
        m = geodesic_point(space, q, r, t)
        gap = min(
            float(dist_to_segment(space, m, p, q)),
            float(dist_to_segment(space, m, p, r)),
        )
        return max(gap - 4.0 * delta, 0.0), "p=%r q=%r r=%r t=%s" % (p, q, r, t)

    run("thin-triangles", 4.0 * delta, thin)

    # 3. parallel rays: same ideal endpoint, origins p, p'; for some split
    # t1 + t2 = d(p,p') the rays stay 8 delta-close at matched parameters
    t_grid = _frac_grid(0, 8, Fraction(1, 2)) if tree else [0.5 * i for i in range(17)]

    def parallel(rng):
        p = _rand_point(rng, space, plan.radius / 2)
        pp = _rand_point(rng, space, plan.radius / 2)
        e = _rand_boundary(rng, space)
        d0 = distance(space, p, pp)
        if tree:
            t1_opt = gromov_product(space, p, pp, TreePoint(e))
        else:
            far = ray_point(space, Ray(p, e), 30.0)
            t1_opt = float(gromov_product(space, p, pp, far))
        splits = [t1_opt]
        if not tree:
            splits = [
                min(max(t1_opt + s * delta, 0.0), float(d0))
                for s in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
            ]
        splits = [(t1, d0 - t1) for t1 in splits if t1 >= 0 and d0 - t1 >= 0]
        if not splits:
            return None
        # every matched pair of parameters, one ray_points call per ray
        a = ray_points(space, Ray(p, e), [t + t1 for t1, _ in splits for t in t_grid])
        b = ray_points(space, Ray(pp, e), [t + t2 for _, t2 in splits for t in t_grid])
        n = len(t_grid)
        best = math.inf
        for k in range(len(splits)):
            sup = 0.0
            for x, y in zip(a[k * n : (k + 1) * n], b[k * n : (k + 1) * n]):
                sup = max(sup, float(distance(space, x, y)))
            best = min(best, sup)
        return max(best - 8.0 * delta, 0.0), "p=%r p'=%r e=%r" % (p, pp, e)

    run("parallel-rays", 8.0 * delta, parallel)

    # 4. product vs rays: (z,z')_x >= T implies the rays at T - delta are
    # 4 delta-close
    def product_rays(rng):
        x = _rand_point(rng, space, plan.radius)
        e1, e2 = _rand_boundary(rng, space), _rand_boundary(rng, space)
        if e1 == e2:
            return None
        if tree:
            prod = gromov_product(space, x, TreePoint(e1), TreePoint(e2))
            T = prod
        else:
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
        return max(gap - 4.0 * delta, 0.0), "x=%r e1=%r e2=%r T=%s" % (x, e1, e2, T)

    run("product-rays", 4.0 * delta, product_rays)

    # 5. quasiconvex hull: a geodesic between two hull points stays within
    # 36 delta of the lines through the defining endpoints
    def qc_hull(rng):
        ends = []
        while len(ends) < 4:
            e = _rand_boundary(rng, space)
            if e not in ends:
                ends.append(e)
        u1, v1, u2, v2 = ends

        def line_pt(u, v, s_extra):
            if tree:
                A, B = TreePoint(u), TreePoint(v)
                mid = distance(space, A, B) / 2
                return geodesic_point(space, A, B, mid + s_extra)
            return plane_line_point(u, v, space.basepoint, float(s_extra))

        x = line_pt(u1, v1, Fraction(rng.randrange(-32, 33), 8) if tree else rng.uniform(-4, 4))
        y = line_pt(u2, v2, Fraction(rng.randrange(-32, 33), 8) if tree else rng.uniform(-4, 4))
        d = distance(space, x, y)
        if float(d) == 0.0:
            return None
        t = d * Fraction(rng.randrange(0, 17), 16) if tree else float(d) * rng.random()
        m = geodesic_point(space, x, y, t)
        cand = [(u1, v1), (u2, v2), (v1, v2), (v1, u2), (u1, v2), (u1, u2)]
        if tree:
            gap = min(float(tree_dist_to_word_line(space, m, a, b)) for a, b in cand)
        else:
            gap = min(plane_dist_to_ideal_line(m, a, b) for a, b in cand)
        return max(gap - 36.0 * delta, 0.0), "C=%r x=%r y=%r" % (ends, x, y)

    run("qc-hull", 36.0 * delta, qc_hull)

    # 6. ray-to-line: the ray from a hull point x toward z in C is 14
    # delta-close, at matched parameters, to a line with endpoints in C
    def ray_line(rng):
        u = _rand_boundary(rng, space)
        v = _rand_boundary(rng, space)
        z = _rand_boundary(rng, space)
        if len({u, v, z}) < 3:
            return None
        if tree:
            A, B = TreePoint(u), TreePoint(v)
            mid = distance(space, A, B) / 2
            x = geodesic_point(space, A, B, mid + Fraction(rng.randrange(-32, 33), 8))
        else:
            x = plane_line_point(u, v, space.basepoint, rng.uniform(-4, 4))
        ray = ray_points(space, Ray(x, z), t_grid)
        best = math.inf
        for c in (u, v):
            if tree:
                # the geodesic from c to the proxy z is the ray from c toward z
                s0 = gromov_product(space, TreePoint(c), TreePoint(z), x)
                line = ray_points(space, Ray(TreePoint(c), z), [s0 + t for t in t_grid])
            elif plane_dist_to_ideal_line(x, c, z) > 6.0 * delta + 1e-9 and delta > 0:
                continue
            else:
                line = plane_line_points(c, z, x, t_grid)
            best = min(best, max(float(distance(space, r, q)) for r, q in zip(ray, line)))
        if best is math.inf:
            return None
        return max(best - 14.0 * delta, 0.0), "u=%r v=%r z=%r x=%r" % (u, v, z, x)

    run("ray-to-line", 14.0 * delta, ray_line)

    return InequalityReport(all(r.passed for r in rows), tuple(rows))
