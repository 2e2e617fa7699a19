import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hypcrit.arrays import (
    distances_to_point,
    pairwise_distances,
    plane_ray_distance,
    plane_ray_distances,
    plane_ray_product,
    plane_ray_products,
)
from hypcrit.errors import KindMismatchError
from hypcrit.space import (
    ModelSpace,
    PlanePoint,
    Ray,
    TreePoint,
    dist_to_segment,
    distance,
    estimate_delta,
    geodesic_point,
    gromov_product,
    plane_dist_to_ray,
    plane_distance,
    plane_line_point,
    plane_line_points,
    ray_point,
    ray_points,
    _mobius_apply,
    _mobius_inverse,
    _mobius_to_axis,
    _plane_line_coords,
    _plane_ray_coords,
)
from hypcrit.geometry_checks import _rand_plane_point, _rand_tree_point

TREE = ModelSpace.tree()
PLANE = ModelSpace.plane()


def rand_points(seed, space, n, radius=6.0):
    rng = random.Random(seed)
    if space.kind == "tree":
        return [_rand_tree_point(rng, space, radius) for _ in range(n)]
    return [_rand_plane_point(rng, radius) for _ in range(n)]


# ---------------------------------------------------------------------------
# distances


def test_tree_distance_small_cases():
    x = TreePoint("")
    assert distance(TREE, x, TreePoint("a")) == 1
    assert distance(TREE, TreePoint("a"), TreePoint("b")) == 2
    assert distance(TREE, TreePoint("ab"), TreePoint("aB")) == 2
    # half-edge points
    p = TreePoint("", Fraction(1, 2), "a")
    assert distance(TREE, x, p) == Fraction(1, 2)
    assert distance(TREE, p, TreePoint("a")) == Fraction(1, 2)
    q = TreePoint("", Fraction(1, 2), "b")
    assert distance(TREE, p, q) == 1


def test_tree_distance_is_exact_rational():
    space = ModelSpace.tree(edge_length=Fraction(3, 2))
    d = distance(space, TreePoint("ab"), TreePoint("aB", Fraction(3, 4), "a"))
    assert isinstance(d, Fraction)
    assert d == Fraction(3, 2) + Fraction(3, 2) + Fraction(3, 4)


def test_plane_distance_closed_form_on_imaginary_axis():
    # d(i, e^t i) = t, the textbook vertical-geodesic formula
    for t in (0.25, 1.0, 3.5):
        got = plane_distance(1j, math.exp(t) * 1j)
        assert got == pytest.approx(t, abs=1e-12)


def test_plane_distance_invariant_under_horizontal_shift_and_dilation():
    rng = random.Random(7)
    for _ in range(200):
        z1, z2 = (_rand_plane_point(rng, 5.0).z for _ in range(2))
        b = rng.uniform(-3, 3)
        lam = math.exp(rng.uniform(-1, 1))
        d0 = plane_distance(z1, z2)
        assert plane_distance(z1 + b, z2 + b) == pytest.approx(d0, abs=1e-9)
        assert plane_distance(lam * z1, lam * z2) == pytest.approx(d0, abs=1e-9)


@pytest.mark.parametrize("space", [TREE, PLANE], ids=["tree", "plane"])
def test_distance_is_a_metric_on_samples(space):
    pts = rand_points(11, space, 25)
    for p in pts:
        assert float(distance(space, p, p)) == 0.0
    for p in pts[:10]:
        for q in pts[:10]:
            assert float(distance(space, p, q)) == pytest.approx(
                float(distance(space, q, p)), abs=1e-12
            )
            for r in pts[:6]:
                lhs = float(distance(space, p, r))
                rhs = float(distance(space, p, q)) + float(distance(space, q, r))
                assert lhs <= rhs + 1e-9


def test_distance_refuses_mixed_kinds():
    with pytest.raises(KindMismatchError):
        distance(TREE, TreePoint("a"), PlanePoint(1j))


# ---------------------------------------------------------------------------
# geodesics and rays


@pytest.mark.parametrize("space", [TREE, PLANE], ids=["tree", "plane"])
def test_geodesic_point_interpolates(space):
    pts = rand_points(13, space, 20)
    for p, q in zip(pts[:10], pts[10:]):
        d = distance(space, p, q)
        if float(d) == 0.0:
            continue
        assert float(distance(space, geodesic_point(space, p, q, 0), p)) < 1e-9
        assert float(distance(space, geodesic_point(space, p, q, d), q)) < 1e-9
        t = d * Fraction(1, 3) if space.kind == "tree" else float(d) / 3.0
        m = geodesic_point(space, p, q, t)
        assert float(distance(space, p, m)) == pytest.approx(float(t), abs=1e-9)
        assert float(distance(space, m, q)) == pytest.approx(float(d - t), abs=1e-9)


def test_tree_geodesic_passes_through_the_median_vertex():
    m = geodesic_point(TREE, TreePoint("ab"), TreePoint("aB"), 1)
    assert m == TreePoint("a")


def test_gromov_product_tree_is_lcp_depth():
    assert gromov_product(TREE, TREE.basepoint, TreePoint("abA"), TreePoint("abb")) == 2
    assert gromov_product(TREE, TREE.basepoint, TreePoint("a"), TreePoint("B")) == 0


@pytest.mark.parametrize("space", [TREE, PLANE], ids=["tree", "plane"])
def test_gromov_product_bounds(space):
    pts = rand_points(17, space, 15)
    for x, y, z in zip(pts[:5], pts[5:10], pts[10:15]):
        p = float(gromov_product(space, x, y, z))
        assert -1e-9 <= p
        assert p <= min(float(distance(space, x, y)), float(distance(space, x, z))) + 1e-9


def test_ray_point_is_unit_speed():
    ray = Ray(TreePoint("b"), "a" * 30)
    a = ray_point(TREE, ray, 2)
    b = ray_point(TREE, ray, 5)
    assert distance(TREE, a, b) == 3
    pray = Ray(PlanePoint(2j), 0.0)
    pa = ray_point(PLANE, pray, 1.0)
    pb = ray_point(PLANE, pray, 2.5)
    assert plane_distance(pa.z, pb.z) == pytest.approx(1.5, abs=1e-9)


# ---------------------------------------------------------------------------
# hyperbolicity and segment distances


def quadruples(seed, space, n):
    pts = rand_points(seed, space, 4 * n)
    return [tuple(pts[4 * i : 4 * i + 4]) for i in range(n)]


def test_estimate_delta_tree_is_zero():
    est = estimate_delta(TREE, quadruples(19, TREE, 40))
    assert float(est.delta_hat) == 0.0


def test_estimate_delta_plane_below_log3():
    est = estimate_delta(PLANE, quadruples(23, PLANE, 40))
    assert 0.0 < est.delta_hat <= math.log(3.0) + 1e-9


@pytest.mark.parametrize("space", [TREE, PLANE], ids=["tree", "plane"])
def test_dist_to_segment_matches_grid_minimum(space):
    pts = rand_points(29, space, 8)
    for x, p, q in zip(pts[:2], pts[2:4], pts[4:6]):
        d = distance(space, p, q)
        if float(d) == 0.0:
            continue
        grid = [
            float(distance(space, x, geodesic_point(space, p, q, d * Fraction(i, 64))))
            if space.kind == "tree"
            else float(distance(space, x, geodesic_point(space, p, q, float(d) * i / 64)))
            for i in range(65)
        ]
        got = float(dist_to_segment(space, x, p, q))
        assert got <= min(grid) + 1e-9
        assert got >= min(grid) - 0.05  # grid is only 1/64-dense


def test_plane_dist_to_ray_matches_grid_minimum():
    pts = rand_points(37, PLANE, 12)
    # ideal targets: a finite point, infinity, and straight below the origin
    for x, p, e in zip(pts[:6], pts[6:], [0.7, math.inf, None, -2.5, math.inf, None]):
        if e is None:
            e = p.z.real
        grid = [plane_distance(x.z, ray_point(PLANE, Ray(p, e), 12.0 * i / 512).z) for i in range(513)]
        got = plane_dist_to_ray(x, p, e)
        assert got <= min(grid) + 1e-9
        assert got >= min(grid) - 0.02  # grid is only 12/512-dense


def test_plane_ray_closed_forms_match_reference():
    base = PLANE.basepoint
    rng = random.Random(41)
    # upward, straight down, and generic endpoints on both sides of 0
    ends = [math.inf, 0.0, 0.3, -0.3, 4.0, -4.0] + [rng.uniform(-6.0, 6.0) for _ in range(30)]
    for t in (1.0, 4.0, 12.0, 23.0):
        for e1 in ends[:8]:
            others = [e for e in ends if e != e1]
            arr = plane_ray_products(e1, np.array(others), t)
            for e2, got in zip(others, arr):
                p1 = ray_point(PLANE, Ray(base, e1), t)
                p2 = ray_point(PLANE, Ray(base, e2), t)
                want = gromov_product(PLANE, base, p1, p2)
                # the reference cancels between distances of deep points
                assert abs(plane_ray_product(e1, e2, t) - want) <= 1e-7
                assert abs(got - want) <= 1e-7
    # points near the rays, off them, and behind i, where the nearest ray
    # point is i itself
    ys = [p.z for p in rand_points(43, PLANE, 12)]
    ys += [0.5j, 2j, 0.01 + 0.3j, 3.0 + 0.1j, -3.0 + 0.1j]
    ys += [ray_point(PLANE, Ray(base, e), 6.0).z * (1 + 1e-3j) for e in ends[:6]]
    behind = 0
    for y in ys:
        arr = plane_ray_distances(y, np.array(ends))
        for e, got in zip(ends, arr):
            want = plane_dist_to_ray(PlanePoint(y), base, e)
            behind += want == pytest.approx(plane_distance(1j, y), rel=1e-12)
            assert plane_ray_distance(y, e) == pytest.approx(want, rel=1e-9)
            assert got == pytest.approx(want, rel=1e-9)
    assert behind > 0


def hexes(zs):
    return [(z.real.hex(), z.imag.hex()) for z in zs]


def reference_line_points(u, v, z, ts):
    """The plane line kernel one point at a time, as `plane_line_points`
    computed it on `PlanePoint`s."""
    if u == math.inf:
        return [complex(v, max(abs(z - v) * math.exp(-t), 1e-300)) for t in ts]
    M = _mobius_to_axis(u, v)
    rho = abs(_mobius_apply(M, z))
    out = []
    for t in ts:
        w = _mobius_apply(_mobius_inverse(M), complex(0.0, rho * math.exp(t)))
        out.append(complex(w.real, max(w.imag, 1e-300)))
    return out


def test_line_coordinates_match_the_point_kernels():
    rng = random.Random(47)
    ts = [0.5 * i - 4.0 for i in range(17)] + [rng.uniform(-30.0, 30.0) for _ in range(8)]
    zs = [p.z for p in rand_points(53, PLANE, 6)] + [1j, 3.0 + 1e-7j]
    ends = [math.inf, 0.0, -2.5, 0.75, 1e-3] + [rng.uniform(-8.0, 8.0) for _ in range(4)]
    lines = [(u, v) for u in ends for v in ends if u != v]
    assert any(u == math.inf for u, _ in lines) and any(v == math.inf for _, v in lines)
    for z in zs:
        x = PlanePoint(z)
        for u, v in lines:
            got = hexes(_plane_line_coords(u, v, z, ts))
            assert got == hexes(reference_line_points(u, v, z, ts))
            assert got == hexes(p.z for p in plane_line_points(u, v, x, ts))
            assert got == hexes(plane_line_point(u, v, x, t).z for t in ts)
        # rays toward infinity, straight down (z.real == e) and generic
        for e in ends + [z.real]:
            rts = [abs(t) for t in ts]
            got = hexes(_plane_ray_coords(z, e, rts))
            assert got == hexes(p.z for p in ray_points(PLANE, Ray(x, e), rts))
            assert got == hexes(ray_point(PLANE, Ray(x, e), t).z for t in rts)


def test_basepoint_is_one_shared_point():
    assert PLANE.basepoint is ModelSpace.plane().basepoint
    assert TREE.basepoint is TREE.basepoint
    assert PLANE.basepoint == PlanePoint(1j) and TREE.basepoint == TreePoint("")


@pytest.mark.parametrize("space", [TREE, PLANE], ids=["tree", "plane"])
def test_vectorized_distances_agree_pointwise(space):
    pts = rand_points(31, space, 15)
    D = pairwise_distances(space, pts)
    assert D.shape == (15, 15)
    for i in range(0, 15, 3):
        for j in range(0, 15, 4):
            assert D[i, j] == pytest.approx(float(distance(space, pts[i], pts[j])), abs=1e-9)
    col = distances_to_point(space, pts, pts[0])
    assert np.allclose(col, D[:, 0], atol=1e-9)


def grid_tree_points(seed, space, n, depth=5):
    """Random tree points on the edge_length/24 offset grid, with repeats
    and every relative position of two root paths well represented."""
    rng = random.Random(seed)
    alpha = "aAbB"
    res = space.edge_length / 24
    pts = []
    for _ in range(n):
        if pts and rng.random() < 0.3:
            # extend or truncate an earlier point so that prefixes abound
            w = rng.choice(pts).word[: rng.randrange(0, depth + 1)]
        else:
            w = ""
        while len(w) < rng.randrange(0, depth + 1):
            c = rng.choice(alpha)
            if not w or c != w[-1].swapcase():
                w += c
        k = rng.randrange(0, 24)
        if k == 0:
            pts.append(TreePoint(w))
            continue
        d = rng.choice([c for c in alpha if not w or c != w[-1].swapcase()])
        pts.append(TreePoint(w, k * res, d))
    return pts + pts[:5]


#: float64 error allowed against exact distances of points at depth <= 7
KERNEL_ATOL = 64 * np.finfo(float).eps * 14


@pytest.mark.parametrize("ell", [Fraction(1), Fraction(9, 8)], ids=["L=1", "L=9/8"])
def test_tree_distance_kernel_matches_exact_distance(ell):
    space = ModelSpace.tree(4, ell)
    pts = grid_tree_points(7, space, 150)
    exact = np.array([[float(distance(space, p, q)) for q in pts] for p in pts])
    D = pairwise_distances(space, pts)
    assert np.array_equal(D, D.T)
    assert np.all(np.diag(D) == 0.0)
    np.testing.assert_allclose(D, exact, rtol=0, atol=KERNEL_ATOL)
    for q in pts[::7] + [TreePoint("abababa"), TreePoint("B", ell / 24, "a")]:
        exact_q = [float(distance(space, p, q)) for p in pts]
        np.testing.assert_allclose(distances_to_point(space, pts, q), exact_q, rtol=0, atol=KERNEL_ATOL)


def test_tree_pairwise_memory_is_linear_beyond_the_output():
    from hypcrit.convergence import snapshot
    from hypcrit.orbits import enumerate_orbit_ball, tree_action

    act = tree_action()
    net = snapshot(act, enumerate_orbit_ball(act, 4), 0.25, resolution=Fraction(1, 24)).points
    assert len(net) == 3841
    tracemalloc.start()
    try:
        D = pairwise_distances(act.space, net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * D.nbytes


def test_tree_point_validation():
    with pytest.raises(ValueError):
        TreePoint("aA")
    with pytest.raises(ValueError):
        TreePoint("a", Fraction(1, 2), None)
    with pytest.raises(ValueError):
        PlanePoint(1.0 - 1j)


# ---------------------------------------------------------------------------
# the integer grid kernel


def unit_path(g, m):
    """The root path of a grid point as one letter per grid unit: the
    common-prefix length of two such strings is their separation."""
    return "".join(c * m for c in g.word) + (g.direction or "") * g.offset


def rand_grid_point(rng, m, depth):
    from hypcrit.space import _GridPoint

    w = ""
    while len(w) < rng.randrange(0, depth + 1):
        c = rng.choice("aAbB")
        if not w or c != w[-1].swapcase():
            w += c
    k = rng.randrange(0, m)
    if k == 0:
        return _GridPoint(w, 0, None)
    d = rng.choice([c for c in "aAbB" if not w or c != w[-1].swapcase()])
    return _GridPoint(w, k, d)


@pytest.mark.parametrize("ell", ["1", "9/8", "3/2", "1/3"])
def test_grid_kernel_matches_the_fraction_reference(ell):
    from hypcrit.space import (
        _GridPoint,
        _grid_geodesic_point,
        _grid_product,
        _grid_ray_points,
        _path_distance,
        _tree_point,
        ray_points,
        tree_grid,
    )

    space = ModelSpace.tree(4, Fraction(ell))
    D, m = tree_grid(space)
    unit = Fraction(1, D)
    assert m * unit == space.edge_length

    def brute(p, q):
        a, b = unit_path(p, m), unit_path(q, m)
        k = 0
        while k < min(len(a), len(b)) and a[k] == b[k]:
            k += 1
        return len(a) + len(b) - 2 * k

    rng = random.Random(ell)
    for _ in range(150):
        p, q, x = (rand_grid_point(rng, m, 4) for _ in range(3))
        P, Q, X = (_tree_point(g, unit) for g in (p, q, x))
        d = _path_distance(m, p, q)
        assert d == brute(p, q)
        assert d * unit == distance(space, P, Q)
        g = _grid_product(m, x, p, q)
        assert 2 * g == brute(x, p) + brute(x, q) - brute(p, q)
        assert g * unit == gromov_product(space, X, P, Q)
        t = rng.randint(0, d)
        mid = _grid_geodesic_point(m, p, q, t)
        assert (brute(p, mid), brute(mid, q)) == (t, d - t)
        assert _tree_point(mid, unit) == geodesic_point(space, P, Q, t * unit)
        proxy = _GridPoint("".join(rng.choice("ab") for _ in range(8)), 0, None)
        ts = [rng.randint(0, _path_distance(m, p, proxy)) for _ in range(5)]
        ray = _grid_ray_points(m, p, proxy, ts)
        assert [(brute(p, r), brute(r, proxy)) for r in ray] == [
            (t, brute(p, proxy) - t) for t in ts
        ]
        assert [_tree_point(r, unit) for r in ray] == ray_points(
            space, Ray(P, proxy.word), [t * unit for t in ts]
        )
