import math

import pytest

from hypcrit.geometry_checks import DEFECT_TOL, SamplingPlan, check_geodesic_lemmas
from hypcrit.space import ModelSpace

TREE = ModelSpace.tree()
PLANE = ModelSpace.plane()
LEMMAS = (
    "projection",
    "thin-triangles",
    "parallel-rays",
    "product-rays",
    "qc-hull",
    "ray-to-line",
)


def test_tree_defects_are_exact_zeros():
    rep = check_geodesic_lemmas(TREE, 0.0, SamplingPlan(count=200, seed=0))
    assert rep.passed
    for name in LEMMAS:
        row = rep.row(name)
        assert row.max_defect == 0.0
        assert row.configs > 0


def test_plane_passes_at_declared_delta():
    rep = check_geodesic_lemmas(PLANE, math.log(3.0), SamplingPlan(count=200, seed=0))
    assert rep.passed
    for name in LEMMAS:
        assert rep.row(name).max_defect <= DEFECT_TOL


def test_plane_delta_zero_is_caught_with_witnesses():
    rep = check_geodesic_lemmas(PLANE, 0.0, SamplingPlan(count=200, seed=0))
    assert not rep.passed
    violated = [r for r in rep.rows if not r.passed]
    assert violated
    for r in violated:
        assert r.max_defect > DEFECT_TOL
        assert r.witness  # a concrete configuration is named


def test_reports_are_seed_deterministic():
    a = check_geodesic_lemmas(PLANE, math.log(3.0), SamplingPlan(count=50, seed=7))
    b = check_geodesic_lemmas(PLANE, math.log(3.0), SamplingPlan(count=50, seed=7))
    assert a == b
    c = check_geodesic_lemmas(PLANE, math.log(3.0), SamplingPlan(count=50, seed=8))
    assert [r.name for r in c.rows] == [r.name for r in a.rows]


def test_unknown_row_lookup_raises():
    rep = check_geodesic_lemmas(TREE, 0.0, SamplingPlan(count=10, seed=0))
    with pytest.raises(KeyError):
        rep.row("isoperimetry")


# ---------------------------------------------------------------------------
# the integer tree sweep against a TreePoint/Fraction reference sweep


def reference_tree_lemmas(space, delta, plan):
    """The six tree lemma sweeps on `TreePoint`s in `Fraction` arithmetic,
    through the public geometry functions, with the sampler's random draws."""
    from fractions import Fraction
    import random
    import zlib

    from hypcrit.geometry_checks import LemmaRow, _rand_boundary, _rand_tree_point
    from hypcrit.space import Ray, TreePoint, distance, geodesic_point, gromov_product, ray_point, ray_points

    def point(rng, radius):
        return _rand_tree_point(rng, space, radius)

    def boundary(rng):
        return _rand_boundary(rng, space)

    def line_point(u, v, s):
        A, B = TreePoint(u), TreePoint(v)
        return geodesic_point(space, A, B, distance(space, A, B) / 2 + s)

    t_grid = [Fraction(k, 2) for k in range(17)]

    def projection(rng):
        x, y, z = (point(rng, plan.radius) for _ in range(3))
        d = p = float(gromov_product(space, x, y, z))
        return max(d - p - 4.0 * delta, 0.0), "x=%r y=%r z=%r" % (x, y, z)

    def thin(rng):
        p, q, r = (point(rng, plan.radius) for _ in range(3))
        d = distance(space, q, r)
        if d == 0:
            return None
        t = d * Fraction(rng.randrange(0, 17), 16)
        m = geodesic_point(space, q, r, t)
        gap = min(float(gromov_product(space, m, p, q)), float(gromov_product(space, m, p, r)))
        return max(gap - 4.0 * delta, 0.0), "p=%r q=%r r=%r t=%s" % (p, q, r, t)

    def parallel(rng):
        p, pp = point(rng, plan.radius / 2), point(rng, plan.radius / 2)
        e = boundary(rng)
        t1 = gromov_product(space, p, pp, TreePoint(e))
        t2 = distance(space, p, pp) - t1
        a = ray_points(space, Ray(p, e), [t + t1 for t in t_grid])
        b = ray_points(space, Ray(pp, e), [t + t2 for t in t_grid])
        sup = max(float(distance(space, x, y)) for x, y in zip(a, b))
        return max(sup - 8.0 * delta, 0.0), "p=%r p'=%r e=%r" % (p, pp, e)

    def product_rays(rng):
        x = point(rng, plan.radius)
        e1, e2 = boundary(rng), boundary(rng)
        if e1 == e2:
            return None
        T = gromov_product(space, x, TreePoint(e1), TreePoint(e2))
        s = T - delta
        if float(s) <= 0:
            return None
        gap = float(distance(space, ray_point(space, Ray(x, e1), s), ray_point(space, Ray(x, e2), s)))
        return max(gap - 4.0 * delta, 0.0), "x=%r e1=%r e2=%r T=%s" % (x, e1, e2, T)

    def qc_hull(rng):
        ends = []
        while len(ends) < 4:
            e = boundary(rng)
            if e not in ends:
                ends.append(e)
        u1, v1, u2, v2 = ends
        x = line_point(u1, v1, Fraction(rng.randrange(-32, 33), 8))
        y = line_point(u2, v2, Fraction(rng.randrange(-32, 33), 8))
        d = distance(space, x, y)
        if d == 0:
            return None
        m = geodesic_point(space, x, y, d * Fraction(rng.randrange(0, 17), 16))
        cand = [(u1, v1), (u2, v2), (v1, v2), (v1, u2), (u1, v2), (u1, u2)]
        gap = min(float(gromov_product(space, m, TreePoint(a), TreePoint(b))) for a, b in cand)
        return max(gap - 36.0 * delta, 0.0), "C=%r x=%r y=%r" % (ends, x, y)

    def ray_line(rng):
        u, v, z = boundary(rng), boundary(rng), boundary(rng)
        if len({u, v, z}) < 3:
            return None
        x = line_point(u, v, Fraction(rng.randrange(-32, 33), 8))
        ray = ray_points(space, Ray(x, z), t_grid)
        best = min(
            max(float(distance(space, r, q)) for r, q in zip(ray, ray_points(
                space, Ray(TreePoint(c), z),
                [gromov_product(space, TreePoint(c), TreePoint(z), x) + t for t in t_grid],
            )))
            for c in (u, v)
        )
        return max(best - 14.0 * delta, 0.0), "u=%r v=%r z=%r x=%r" % (u, v, z, x)

    rows = []
    for name, factor, sampler in [
        ("projection", 4.0, projection), ("thin-triangles", 4.0, thin),
        ("parallel-rays", 8.0, parallel), ("product-rays", 4.0, product_rays),
        ("qc-hull", 36.0, qc_hull), ("ray-to-line", 14.0, ray_line),
    ]:
        rng = random.Random(zlib.crc32(name.encode()) ^ (plan.seed * 0x9E3779B1))
        worst, witness, n = 0.0, "", 0
        for _ in range(plan.count):
            got = sampler(rng)
            if got is None:
                continue
            n += 1
            if got[0] > worst:
                worst, witness = got
        rows.append(LemmaRow(name, n, worst, factor * delta, worst <= DEFECT_TOL, witness))
    return tuple(rows)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_tree_sweep_matches_fraction_reference(seed):
    plan = SamplingPlan(count=300, seed=seed)
    assert check_geodesic_lemmas(TREE, 0.0, plan).rows == reference_tree_lemmas(TREE, 0.0, plan)


@pytest.mark.parametrize("delta", [0.0, -0.25], ids=["delta=0", "delta<0"])
def test_tree_sweep_matches_reference_off_the_dyadic_grid(delta):
    # at L = 2/3, T - delta is a float that can miss the grid: product-rays
    # then takes the reference path and keeps its rounding; a negative
    # delta makes every lemma name a witness
    from fractions import Fraction

    space = ModelSpace.tree(4, Fraction(2, 3))
    plan = SamplingPlan(count=60, seed=1)
    rows = check_geodesic_lemmas(space, delta, plan).rows
    assert rows == reference_tree_lemmas(space, delta, plan)
    assert all(r.witness for r in rows) == (delta < 0)


@pytest.mark.parametrize("ell", ["1/3", "1/4"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_tree_proxies_reach_past_the_rays_on_short_edges(ell, seed):
    # proxy words are sized in length units: at L = 1/3 and 1/4, 24 letters
    # end 8 and 6 deep, short of the parallel-rays parameters
    from fractions import Fraction

    space = ModelSpace.tree(4, Fraction(ell))
    plan = SamplingPlan(count=60, seed=seed)
    rows = check_geodesic_lemmas(space, 0.0, plan).rows
    assert all(r.passed and r.configs > 50 for r in rows)
    if seed == 0:
        assert rows == reference_tree_lemmas(space, 0.0, plan)


def test_tree_sweep_makes_no_fraction_arithmetic():
    import cProfile
    import pstats

    prof = cProfile.Profile()
    prof.runcall(check_geodesic_lemmas, TREE, 0.0, SamplingPlan(count=100, seed=0))
    called = {
        fn for (path, _, fn), st in pstats.Stats(prof).stats.items()
        if path.endswith("fractions.py") and st[1]
    }
    # the grid is read off the edge length once; witness texts, which
    # build Fractions, are formatted only for a positive defect
    assert called <= {"numerator", "denominator", "__float__"}


# ---------------------------------------------------------------------------
# the early-exit plane sweep against the full plane sweep


def reference_plane_lemmas(space, delta, plan):
    """The six plane lemma sweeps computing every candidate in full: every
    split, line and side, every grid point, and every witness text."""
    import random
    import zlib

    from hypcrit.geometry_checks import LemmaRow, _rand_boundary, _rand_plane_point
    from hypcrit.space import (
        Ray, _plane_line_coords, _plane_ray_coords, dist_to_segment, distance, geodesic_point,
        gromov_product, plane_dist_to_ideal_line, plane_distance, plane_line_point, ray_point,
    )

    def point(rng, radius):
        return _rand_plane_point(rng, radius)

    def projection(rng):
        x, y, z = (point(rng, plan.radius) for _ in range(3))
        d = float(dist_to_segment(space, x, y, z))
        p = float(gromov_product(space, x, y, z))
        return max(d - p - 4.0 * delta, 0.0), "x=%r y=%r z=%r" % (x, y, z)

    def thin(rng):
        p, q, r = (point(rng, plan.radius) for _ in range(3))
        d = distance(space, q, r)
        if float(d) == 0.0:
            return None
        t = float(d) * rng.random()
        m = geodesic_point(space, q, r, t)
        gap = min(float(dist_to_segment(space, m, p, q)), float(dist_to_segment(space, m, p, r)))
        return max(gap - 4.0 * delta, 0.0), "p=%r q=%r r=%r t=%s" % (p, q, r, t)

    t_grid = [0.5 * i for i in range(17)]

    def parallel(rng):
        p, pp = point(rng, plan.radius / 2), point(rng, plan.radius / 2)
        e = _rand_boundary(rng, space)
        d0 = distance(space, p, pp)
        t1_opt = float(gromov_product(space, p, pp, ray_point(space, Ray(p, e), 30.0)))
        splits = [
            min(max(t1_opt + s * delta, 0.0), float(d0))
            for s in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
        ]
        splits = [(t1, d0 - t1) for t1 in splits if t1 >= 0 and d0 - t1 >= 0]
        if not splits:
            return None
        a = list(_plane_ray_coords(p.z, e, [t + t1 for t1, _ in splits for t in t_grid]))
        b = list(_plane_ray_coords(pp.z, e, [t + t2 for _, t2 in splits for t in t_grid]))
        n = len(t_grid)
        best = min(
            max(map(plane_distance, a[k : k + n], b[k : k + n])) for k in range(0, len(a), n)
        )
        return max(best - 8.0 * delta, 0.0), "p=%r p'=%r e=%r" % (p, pp, e)

    def product_rays(rng):
        x = point(rng, plan.radius)
        e1, e2 = _rand_boundary(rng, space), _rand_boundary(rng, space)
        if e1 == e2:
            return None
        f1, f2 = ray_point(space, Ray(x, e1), 30.0), ray_point(space, Ray(x, e2), 30.0)
        T = float(gromov_product(space, x, f1, f2)) - 0.01
        s = T - delta
        if float(s) <= 0:
            return None
        gap = float(distance(space, ray_point(space, Ray(x, e1), s), ray_point(space, Ray(x, e2), s)))
        return max(gap - 4.0 * delta, 0.0), "x=%r e1=%r e2=%r T=%s" % (x, e1, e2, T)

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
        m = geodesic_point(space, x, y, float(d) * rng.random())
        cand = [(u1, v1), (u2, v2), (v1, v2), (v1, u2), (u1, v2), (u1, u2)]
        gap = min(plane_dist_to_ideal_line(m, a, b) for a, b in cand)
        return max(gap - 36.0 * delta, 0.0), "C=%r x=%r y=%r" % (ends, x, y)

    def ray_line(rng):
        u, v, z = (_rand_boundary(rng, space) for _ in range(3))
        if len({u, v, z}) < 3:
            return None
        x = plane_line_point(u, v, space.basepoint, rng.uniform(-4, 4))
        ray = list(_plane_ray_coords(x.z, z, t_grid))
        best = math.inf
        for c in (u, v):
            if plane_dist_to_ideal_line(x, c, z) > 6.0 * delta + 1e-9 and delta > 0:
                continue
            best = min(best, max(map(plane_distance, ray, _plane_line_coords(c, z, x.z, t_grid))))
        if best is math.inf:
            return None
        return max(best - 14.0 * delta, 0.0), "u=%r v=%r z=%r x=%r" % (u, v, z, x)

    rows = []
    for name, factor, sampler in [
        ("projection", 4.0, projection), ("thin-triangles", 4.0, thin),
        ("parallel-rays", 8.0, parallel), ("product-rays", 4.0, product_rays),
        ("qc-hull", 36.0, qc_hull), ("ray-to-line", 14.0, ray_line),
    ]:
        rng = random.Random(zlib.crc32(name.encode()) ^ (plan.seed * 0x9E3779B1))
        worst, witness, n = 0.0, "", 0
        for _ in range(plan.count):
            got = sampler(rng)
            if got is None:
                continue
            n += 1
            if got[0] > worst:
                worst, witness = got
        rows.append(LemmaRow(name, n, worst, factor * delta, worst <= DEFECT_TOL, witness))
    return tuple(rows)


def row_bits(rows):
    return [(r.name, r.configs, r.max_defect.hex(), r.bound.hex(), r.passed, r.witness) for r in rows]


@pytest.mark.parametrize("delta", [math.log(3.0), 0.0, 0.05, 0.2, 0.5, 1.0])
def test_plane_sweep_matches_the_full_sweep(delta):
    # the early exits settle each defect at the first value that decides
    # it: every row, witness included, is the full sweep's to the bit
    for seed in range(6):
        plan = SamplingPlan(count=500, seed=seed)
        got = check_geodesic_lemmas(PLANE, delta, plan).rows
        assert row_bits(got) == row_bits(reference_plane_lemmas(PLANE, delta, plan))


@pytest.mark.parametrize("ell", ["3/2", "9/8", "2"])
def test_tree_sweep_matches_reference_at_positive_delta(ell):
    # a positive delta lets qc-hull and ray-to-line stop at a nonzero floor
    from fractions import Fraction

    space = ModelSpace.tree(4, Fraction(ell))
    for delta in (0.0, 0.5):
        plan = SamplingPlan(count=60, seed=2)
        assert check_geodesic_lemmas(space, delta, plan).rows == reference_tree_lemmas(space, delta, plan)


def test_parallel_rays_stop_at_the_first_deciding_split(monkeypatch):
    # at delta = log 3 the t1_opt split already stays within 8 delta, so a
    # configuration measures one split's 17 grid points, not all 7 x 17
    import random

    from hypcrit import geometry_checks
    from hypcrit.space import plane_distance

    calls = []

    def counted(z1, z2):
        calls.append(1)
        return plane_distance(z1, z2)

    monkeypatch.setattr(geometry_checks, "plane_distance", counted)
    rows = dict((n, s) for n, _, s in geometry_checks._plane_samplers(PLANE, math.log(3.0), SamplingPlan()))
    rng = random.Random(11)
    configs = sum(rows["parallel-rays"](rng) is not None for _ in range(200))
    assert configs > 150
    assert len(calls) <= 18 * configs


def choice_word(rng, alpha, length, w=""):
    """The letter draws `_rand_word` replaced: one `rng.choice` per draw."""
    out = list(w)
    for _ in range(length):
        c = rng.choice(alpha)
        while out and c == out[-1].swapcase():
            c = rng.choice(alpha)
        out.append(c)
    return "".join(out)


def test_letter_draws_are_those_of_random_choice():
    # the lemma sweeps' words, and the generator state after them, match
    # `Random.choice` letter for letter; a Python whose `choice` draws
    # differently fails here, not only in the golden digests
    import random

    from hypcrit.geometry_checks import _GridPoint, _letter_draws, _rand_grid_point, _rand_word
    from hypcrit.words import letters

    for rank in (1, 2, 3, 4):
        alpha = letters(rank)
        draws = _letter_draws(alpha)
        for seed in range(300):
            a, b = random.Random(seed), random.Random(seed)
            for length in range(41):
                assert _rand_word(a, draws, length) == choice_word(b, alpha, length)
            assert a.getstate() == b.getstate()
            # a grid point: its vertex word, then one direction off it
            w = choice_word(b, alpha, b.randrange(0, 7))
            k = b.randrange(0, 8)
            want = _GridPoint(w, k * 24 // 8, choice_word(b, alpha, 1, w[-1:])[-1] if k else None)
            assert _rand_grid_point(a, draws, 24, 6) == want
            assert a.getstate() == b.getstate()


def test_table_draws_are_the_letter_loop_draws():
    # `_rand_word` reads a letter table and finds an inverse by rank; the
    # loop it replaced compared letters and their swapcase: the same words,
    # after any prefix, and the same generator state after each word
    import random

    from word_oracle import rand_word

    from hypcrit.geometry_checks import _letter_draws, _rand_word
    from hypcrit.words import letters

    for rank in (1, 2, 3, 5):
        alpha = letters(rank)
        draws = _letter_draws(alpha)
        for seed in range(400):
            a, b = random.Random(seed), random.Random(seed)
            for length in range(26):
                prefix = rand_word(b, alpha, length % 4)
                assert _rand_word(a, draws, length % 4) == prefix
                assert _rand_word(a, draws, length, prefix) == rand_word(b, alpha, length, prefix)
                assert a.getstate() == b.getstate()
