import bisect
import itertools
import math
import random
from fractions import Fraction

import pytest

from hypcrit import cli
from hypcrit.entropy import (
    EntropyEstimate,
    check_entropy_lower_bound,
    check_packing_chain,
    check_packing_growth,
    covering_entropy_estimate,
    covering_number,
    equidistribution_constant,
    estimate_critical_exponent,
    greedy_covering_count,
    packing_number,
    poincare_partial,
    rank_quantile_estimate,
    recheck_equidistribution,
)
from hypcrit.errors import InsufficientDataError
from hypcrit.geometry_checks import _rand_plane_point, _rand_tree_point
from hypcrit.orbits import TreeBall, _count_by_shell, enumerate_orbit_ball, tree_action
from hypcrit.space import ModelSpace

TREE = ModelSpace.tree()
PLANE = ModelSpace.plane()


def synthetic_counts(h, K=1.0):
    return [(t, max(1, round(K * math.exp(h * t)))) for t in range(0, 12)]


# ---------------------------------------------------------------------------
# exponent estimation


def test_regression_recovers_exact_exponential_growth():
    counts = [(t, 5 * 3**t) for t in range(0, 11)]
    est = estimate_critical_exponent(counts, (2, 10))
    assert est.h_hat == pytest.approx(math.log(3.0), abs=1e-12)
    assert est.residual < 1e-12
    assert est.method == "regression"


def test_estimator_input_validation():
    good = synthetic_counts(1.0)
    with pytest.raises(ValueError):
        estimate_critical_exponent(good[:3], (0, 2))
    with pytest.raises(ValueError):
        estimate_critical_exponent([(0, 1), (1, 3), (2, 2), (3, 5)], (0, 3))
    with pytest.raises(ValueError):
        estimate_critical_exponent([(0, 0), (1, 1), (2, 2), (3, 3)], (0, 3))


def test_poincare_partial_on_tree_ball():
    ball = enumerate_orbit_ball(tree_action(), 6)
    # closed form: 1 + sum_{n=1..6} 4*3^{n-1} e^{-s n}
    s = 1.5
    want = 1.0 + sum(4 * 3 ** (n - 1) * math.exp(-s * n) for n in range(1, 7))
    assert poincare_partial(ball, s) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        poincare_partial(ball, -0.1)


@pytest.mark.parametrize("ell", [Fraction(1), Fraction(9, 8)], ids=["L=1", "L=9/8"])
def test_poincare_partial_reads_tree_levels(ell, monkeypatch):
    ball = enumerate_orbit_ball(tree_action(edge_length=ell), 7 * ell)
    with monkeypatch.context() as m:
        m.setattr(TreeBall, "_tree_levels", None)  # no word is listed
        got = [poincare_partial(ball, s) for s in (0.4, 1.5)]
    for s, value in zip((0.4, 1.5), got):
        assert value == sum(math.exp(-s * float(e.displacement)) for e in ball.entries)


# ---------------------------------------------------------------------------
# equidistribution constant


def test_equidistribution_constant_on_exact_free_group_counts():
    counts = [(n, 2 * 3**n - 1) for n in range(0, 11)]
    rep = equidistribution_constant(counts, math.log(3.0))
    # oracle: max over the grid of max(N/3^n, 3^n/N), N = 2*3^n - 1
    want = max(max((2 * 3**n - 1) / 3**n, 3**n / (2 * 3**n - 1)) for n in range(11))
    assert rep.K_measured == pytest.approx(want, rel=1e-12)
    assert rep.K_measured < 2.0
    assert recheck_equidistribution(counts, math.log(3.0), rep.K_measured + 1e-12)
    assert not recheck_equidistribution(counts, math.log(3.0), rep.K_measured * 0.9)


def test_equidistribution_validation():
    with pytest.raises(ValueError):
        equidistribution_constant([(1, 3)], 0.0)
    with pytest.raises(ValueError):
        equidistribution_constant([(1, 0)], 1.0)


# ---------------------------------------------------------------------------
# packing and covering


def brute_force_covering(space, points, r):
    from hypcrit.arrays import pairwise_distances

    D = pairwise_distances(space, points)
    n = len(points)
    for k in range(1, n + 1):
        for centers in itertools.combinations(range(n), k):
            if all(min(D[i, j] for j in centers) <= r + 1e-12 for i in range(n)):
                return k
    return n


def brute_force_packing(space, points, r):
    from hypcrit.arrays import pairwise_distances

    D = pairwise_distances(space, points)
    n = len(points)
    best = 0
    for k in range(n, 0, -1):
        for chosen in itertools.combinations(range(n), k):
            if all(D[i, j] > 2 * r + 1e-12 for i, j in itertools.combinations(chosen, 2)):
                return k
    return best


@pytest.mark.parametrize("space", [TREE, PLANE], ids=["tree", "plane"])
def test_exact_modes_match_brute_force(space):
    rng = random.Random(41)
    for trial in range(6):
        n = rng.randrange(4, 9)
        if space.kind == "tree":
            pts = [_rand_tree_point(rng, space, 4.0) for _ in range(n)]
        else:
            pts = [_rand_plane_point(rng, 4.0) for _ in range(n)]
        r = rng.uniform(0.3, 1.5)
        assert covering_number(space, pts, r) == brute_force_covering(space, pts, r)
        assert packing_number(space, pts, r, "exact") == brute_force_packing(space, pts, r)


@pytest.mark.parametrize("space", [TREE, PLANE], ids=["tree", "plane"])
def test_greedy_modes_bound_the_optimum(space):
    rng = random.Random(43)
    for trial in range(6):
        if space.kind == "tree":
            pts = [_rand_tree_point(rng, space, 5.0) for _ in range(14)]
        else:
            pts = [_rand_plane_point(rng, 5.0) for _ in range(14)]
        r = rng.uniform(0.3, 1.5)
        assert greedy_covering_count(space, pts, r) >= covering_number(space, pts, r)
        assert packing_number(space, pts, r, "greedy") <= packing_number(space, pts, r, "exact")


def test_exact_mode_size_limit():
    rng = random.Random(47)
    pts = [_rand_tree_point(rng, TREE, 5.0) for _ in range(30)]
    with pytest.raises(ValueError):
        covering_number(TREE, pts, 1.0)


@pytest.mark.parametrize("space", [TREE, PLANE], ids=["tree", "plane"])
def test_packing_chain(space):
    rng = random.Random(53)
    for trial in range(10):
        if space.kind == "tree":
            pts = [_rand_tree_point(rng, space, 5.0) for _ in range(12)]
        else:
            pts = [_rand_plane_point(rng, 5.0) for _ in range(12)]
        ok, (p2, c2, p1) = check_packing_chain(space, pts, rng.uniform(0.3, 1.2))
        assert ok
        assert p2 <= c2 <= p1


def test_covering_entropy_on_the_tree():
    act = tree_action()
    ball = enumerate_orbit_ball(act, 7)
    est = covering_entropy_estimate(act, [e.point for e in ball.entries], 0.5, (3, 7))
    assert est.h_hat == pytest.approx(math.log(3.0), abs=0.05)


def test_covering_entropy_refuses_a_three_count_window():
    act = tree_action()
    ball = enumerate_orbit_ball(act, 5)
    with pytest.raises(InsufficientDataError):
        covering_entropy_estimate(act, [e.point for e in ball.entries], 0.5, (3, 5))


def test_packing_growth_bound_on_tree():
    act = tree_action()
    ball = enumerate_orbit_ball(act, 6)
    rep = check_packing_growth(act, [e.point for e in ball.entries], [2.0, 4.0, 6.0], 1.0)
    assert rep.passed
    assert rep.P >= 1


def test_entropy_lower_bound():
    ok, bound = check_entropy_lower_bound(math.log(3.0), 0.0, 0.5)
    assert ok
    assert bound == pytest.approx(math.log(2.0) / 5.0, rel=1e-12)
    bad, _ = check_entropy_lower_bound(0.05, 0.0, 0.5)
    assert not bad
    with pytest.raises(ValueError):
        check_entropy_lower_bound(1.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# greedy covering of isolated tree vertices


def counted_rows(monkeypatch):
    """Count the distance-row kernels `greedy_covering_count` builds; it
    imports `arrays._distance_rows` where it runs."""
    from hypcrit import arrays

    built = [0]
    rows = arrays._distance_rows

    def counting(space, points):
        built[0] += 1
        return rows(space, points)

    monkeypatch.setattr(arrays, "_distance_rows", counting)
    return built


def greedy_loop(monkeypatch, space, points, r):
    from hypcrit import entropy

    with monkeypatch.context() as m:
        m.setattr(entropy, "_isolated_vertices", lambda space, r: False)
        return greedy_covering_count(space, points, r)


@pytest.mark.parametrize("ell", [Fraction(1), Fraction(3, 2), Fraction(1, 3)])
def test_greedy_shortcut_equals_the_loop_on_vertex_sets(monkeypatch, ell):
    from hypcrit.space import TreePoint
    from hypcrit.words import reduced_words_upto

    space = ModelSpace.tree(4, ell)
    pts = [TreePoint(w) for w in reduced_words_upto(2, 4)][::-1]
    built = counted_rows(monkeypatch)
    for r in (0.0, 0.25 * float(ell), 0.999 * float(ell)):
        assert greedy_covering_count(space, pts, r) == len(pts)
        assert built[0] == 0
        assert greedy_loop(monkeypatch, space, pts, r) == len(pts)
        assert built[0] == 1
        built[0] = 0


def test_greedy_shortcut_needs_distinct_vertices_below_one_edge(monkeypatch):
    from hypcrit.space import TreePoint
    from hypcrit.words import reduced_words_upto

    space = ModelSpace.tree(4, Fraction(3, 2))
    pts = [TreePoint(w) for w in reduced_words_upto(2, 3)]
    built = counted_rows(monkeypatch)
    cases = [
        (pts + [TreePoint("a", Fraction(3, 4), "b")], 1.0),  # a point off the vertices
        (pts + pts[:3], 1.0),  # repeated vertices
        (pts, 1.5),  # r = L: neighbours cover each other
    ]
    for points, r in cases:
        got = greedy_covering_count(space, points, r)
        assert built[0] == 1
        assert got == greedy_loop(monkeypatch, space, points, r)
        built[0] = 0
    assert greedy_covering_count(space, pts, 1.5) < len(pts)


def test_tree_covering_entropy_reads_the_ball_levels():
    act = tree_action(edge_length=Fraction(3, 2))
    ball = enumerate_orbit_ball(act, 9)
    for r in (0.5, 1.5):
        from_ball = covering_entropy_estimate(act, ball, r, (3, 9))
        from_points = covering_entropy_estimate(act, [e.point for e in ball.entries], r, (3, 9))
        assert from_ball == from_points


def test_entropy_f2_tree_builds_no_tree_point(tmp_path, monkeypatch):
    from hypcrit import cli
    from hypcrit.space import TreePoint

    built = [0]
    check = TreePoint.__init__

    def counting(self, *args):
        built[0] += 1
        check(self, *args)

    monkeypatch.setattr(TreePoint, "__init__", counting)
    assert cli.main(["entropy", "--scenario", "f2_tree", "--out", str(tmp_path)]) == 0
    assert built[0] == 0
    TreePoint("ab")
    assert built[0] == 1


# ---------------------------------------------------------------------------
# the ball's counting function against the code it replaced: the shells
# each model's enumeration built from its own lambda (on trees at the
# radius `_exact_T` snapped the caller's T to), `_member_counts` and the
# rank-quantile block inline in `run_continuity_experiment`


def reference_shells(ball, T):
    if isinstance(ball, TreeBall):
        L = ball.edge_length
        T = L * int(Fraction(T) / L)
        disps = [(float(k * L), n) for k, n in enumerate(ball.sizes)]
        return _count_by_shell(
            lambda t: sum(n for d, n in disps if d <= t), T, float(L), sum(ball.sizes)
        )
    disps = sorted(e.displacement for e in ball.entries)
    return _count_by_shell(lambda t: bisect.bisect_right(disps, t), T, 1.0, len(ball.entries))


def reference_member_counts(ball, T):
    shells = [(float(t), n) for t, n in reference_shells(ball, T) if n > 0]
    if isinstance(ball, TreeBall):
        return shells
    disps = sorted(float(e.displacement) for e in ball.entries)
    out = []
    for i, d in enumerate(disps):
        if out and d - out[-1][0] < 1e-9:
            out[-1] = (out[-1][0], i + 1)
        else:
            out.append((d, i + 1))
    return out


def reference_rank_quantile(ball, rank_window):
    lo_n, hi_n = rank_window
    d = sorted(float(e.displacement) for e in ball.entries)
    if len(d) < hi_n:
        raise InsufficientDataError("ball too shallow for rank window %r" % (rank_window,))
    h = math.log(hi_n / lo_n) / (d[hi_n - 1] - d[lo_n - 1])
    mid = int(round(math.sqrt(lo_n * hi_n)))
    h_mid = math.log(mid / lo_n) / (d[mid - 1] - d[lo_n - 1])
    win = (d[lo_n - 1], d[hi_n - 1])
    return EntropyEstimate(
        h, win, "rank-quantile", abs(h - h_mid),
        ((d[lo_n - 1], lo_n), (d[hi_n - 1], hi_n)),
    )


def hexed(v):
    """v with every float, however nested in tuples and lists, as its hex."""
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, (tuple, list)):
        return type(v)(hexed(x) for x in v)
    return v


def family_balls(name):
    """(ball, T) of every member and the limit of a bundled family, at the
    radius the continuity experiment asks for."""
    make_member, schedule, limit, config = cli.read_family(cli.load_scenario(name))
    for p in schedule + [limit]:
        T = config.ball_T * config.param_scale(p)
        yield enumerate_orbit_ball(make_member(p), T), T


@pytest.fixture(scope="module")
def schottky_family_balls():
    return list(family_balls("schottky_family"))


def test_plane_family_counts_are_bitwise_the_replaced_code(schottky_family_balls):
    # the members' radii 23 L/4 are off the unit grid, so their shells
    # close with (T, N(T))
    assert len([T for _, T in schottky_family_balls if T != int(T)]) == 7
    window = tuple(cli.load_scenario("schottky_family")["converge"]["rank_window"])
    for ball, T in schottky_family_balls:
        assert hexed(ball.count_by_shell) == hexed(reference_shells(ball, T))
        assert hexed(ball.count_samples) == hexed(reference_member_counts(ball, T))
        got = tuple(rank_quantile_estimate(ball, window))
        assert hexed(got) == hexed(tuple(reference_rank_quantile(ball, window)))


def test_rank_quantile_refuses_a_shallow_ball(schottky_family_balls):
    ball = schottky_family_balls[-1][0]
    window = (1, ball.count + 1)
    with pytest.raises(InsufficientDataError, match="too shallow") as got:
        rank_quantile_estimate(ball, window)
    with pytest.raises(InsufficientDataError) as ref:
        reference_rank_quantile(ball, window)
    assert str(got.value) == str(ref.value)


def test_tree_family_counts_are_bitwise_the_replaced_code():
    for ball, T in family_balls("tree_rescale_family"):
        assert hexed(ball.count_by_shell) == hexed(reference_shells(ball, T))
        assert hexed(ball.count_samples) == hexed(reference_member_counts(ball, T))
