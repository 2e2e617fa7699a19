import math
import random
import re
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from hypcrit import boundary
from hypcrit.boundary import (
    Atom,
    AtomicMeasure,
    PlaneBoundary,
    TreeBoundary,
    VisualParams,
    _add_copies,
    _prefix_counts,
    _pushed_measure,
    _rules,
    ball_mass,
    check_ahlfors_regularity,
    check_quasiconformality,
    check_shadow_ball_lemma,
    cylinder_scale,
    generalized_ball_contains,
    limit_set_sample,
    patterson_sullivan_atoms,
    qc_hull_sample,
    shadow_contains,
    shadow_mass,
    tree_cylinder_cells,
    visual_distance,
)
from hypcrit.errors import DepthError, InsufficientDataError, MeasureError, ParameterError
from hypcrit.isometries import PlaneIsometry, certify_ping_pong, schottky_pair
from hypcrit.orbits import enumerate_orbit_ball, schottky_action, tree_action
from hypcrit.space import (
    Ray,
    TreePoint,
    _lcp,
    _tree_point,
    _tree_separation,
    distance,
    geodesic_point,
    ray_point,
)
from hypcrit.words import reduced_words_of_length, reduced_words_upto


@pytest.fixture(scope="module")
def f2():
    return tree_action()


@pytest.fixture(scope="module")
def f2_ball(f2):
    return enumerate_orbit_ball(f2, 8)


@pytest.fixture(scope="module")
def f2_measure(f2, f2_ball):
    return patterson_sullivan_atoms(f2, f2_ball, 1.3)


@pytest.fixture(scope="module")
def schottky():
    desc = schottky_pair(4.0)
    return schottky_action(desc, certify_ping_pong(desc))


@pytest.fixture(scope="module")
def schottky_ball(schottky):
    return enumerate_orbit_ball(schottky, 14.0)


@pytest.fixture(scope="module")
def l4_ball(schottky):
    """The orbit ball of the schottky_L4 boundary audit."""
    return enumerate_orbit_ball(schottky, 23.0)


@pytest.fixture(scope="module")
def l4_measure(schottky, l4_ball):
    return patterson_sullivan_atoms(schottky, l4_ball, 0.35)


# ---------------------------------------------------------------------------
# boundary products, visual metric, shadows


def test_tree_boundary_product_is_lcp(f2):
    z = TreeBoundary("abab")
    zp = TreeBoundary("abba")
    p, err = _rules(f2).product(z, zp)
    assert p == 2
    assert err == 0


def test_tree_boundary_product_refuses_truncation(f2):
    with pytest.raises(DepthError):
        _rules(f2).product(TreeBoundary("ab"), TreeBoundary("abab"))


def test_plane_boundary_product_bracket(schottky):
    z = PlaneBoundary(1.0, depth=12.0)
    zp = PlaneBoundary(-1.0, depth=12.0)
    p, err = _rules(schottky).product(z, zp)
    assert p >= -1e-9
    assert 0 <= err <= schottky.declared_delta + 1e-12


def _decimal_ray_product(e1, e2, t):
    """t - asinh(sinh t sin(theta/2)) at 40 digits from the exact floats."""
    with localcontext() as ctx:
        ctx.prec = 40
        t = Decimal(t)
        if math.inf in (e1, e2):
            other = Decimal(e2 if e1 == math.inf else e1)
            sine = 1 / (1 + other * other).sqrt()
        else:
            a, b = Decimal(e1), Decimal(e2)
            sine = abs(a - b) / ((1 + a * a) * (1 + b * b)).sqrt()
        x = (t.exp() - (-t).exp()) / 2 * sine
        return float(t - (x + (x * x + 1).sqrt()).ln())


def test_plane_boundary_product_has_no_cancellation(l4_measure, schottky):
    # d(i, p1) + d(i, p2) - d(p1, p2) of ray points at depth up to 23
    # cancels to ~1e-10; the product must be accurate to rounding
    atoms = [a.boundary for a in l4_measure.boundary_atoms]
    checked = 0
    for z in atoms[::37]:
        for zp in atoms[::41]:
            if z.coord == zp.coord:
                continue
            t = max(min(z.depth, zp.depth), 4.0)
            got, _ = _rules(schottky).product(z, zp)
            assert abs(got - _decimal_ray_product(z.coord, zp.coord, t)) <= 1e-12
            checked += 1
    assert checked > 900


def test_visual_distance_tree_is_an_ultrametric(f2):
    params = VisualParams(a=1.0)
    zs = [TreeBoundary(w) for w in ("aaaa", "abaa", "abba", "baba")]
    for z in zs:
        for zp in zs:
            if z.word == zp.word:
                continue
            lo, hi = visual_distance(params, f2, z, zp)
            assert lo == hi
    d = lambda u, v: visual_distance(params, f2, TreeBoundary(u), TreeBoundary(v))[0]
    for u, v, w in (("aaaa", "abaa", "abba"), ("aaaa", "baba", "abba")):
        assert d(u, w) <= max(d(u, v), d(v, w)) + 1e-12


def test_visual_distance_plane_bracket_ordering(schottky):
    params = VisualParams(a=0.3)
    z = PlaneBoundary(2.0, depth=12.0)
    zp = PlaneBoundary(-3.0, depth=12.0)
    lo, hi = visual_distance(params, schottky, z, zp)
    assert 0 < lo <= hi


def test_visual_parameter_range_is_enforced(schottky):
    with pytest.raises(ValueError):
        visual_distance(VisualParams(a=0.7), schottky,
                        PlaneBoundary(1.0), PlaneBoundary(-1.0))


def test_visual_params_take_no_center(f2):
    # distances are measured from the action basepoint; a center would be ignored
    with pytest.raises(TypeError):
        VisualParams(a=1.0, center=f2.basepoint)


def test_generalized_ball_is_the_cylinder(f2):
    rho = cylinder_scale(f2, 2)
    z = TreeBoundary("ab")
    assert generalized_ball_contains(f2, z, rho, TreeBoundary("abaa"))
    assert generalized_ball_contains(f2, z, rho, TreeBoundary("aBaa")) is False
    # a shallower approximant that might or might not continue into the
    # cylinder is refused, not guessed
    with pytest.raises(DepthError):
        generalized_ball_contains(f2, TreeBoundary("abab"), cylinder_scale(f2, 4), z)


def test_shadow_contains_tree(f2):
    y = TreePoint("ab")
    assert shadow_contains(f2, y, 0.5, TreeBoundary("ababab"))
    assert not shadow_contains(f2, y, 0.5, TreeBoundary("bbbbbb"))
    with pytest.raises(ValueError):
        shadow_contains(f2, y, 0.0, TreeBoundary("ababab"))


def test_shadow_contains_plane_vertical_axis(schottky):
    # basepoint i, endpoint inf: the ray is the vertical half-line above i
    from hypcrit.space import PlanePoint

    assert shadow_contains(schottky, PlanePoint(3j), 0.5, PlaneBoundary(math.inf))
    assert not shadow_contains(schottky, PlanePoint(3.0 + 3j), 0.5, PlaneBoundary(math.inf))


# ---------------------------------------------------------------------------
# limit sets and measures


def test_limit_set_sample_tree(f2, f2_ball):
    sam = limit_set_sample(f2, f2_ball, 8)
    assert len(sam) == 4 * 3**7
    assert all(z.depth == 8 for z in sam)
    with pytest.raises(InsufficientDataError):
        limit_set_sample(f2, f2_ball, 9)


def test_limit_set_sample_plane(schottky, schottky_ball):
    sam = limit_set_sample(schottky, schottky_ball, 4.0)
    assert len(sam) >= 4
    coords = [z.coord for z in sam]
    assert len(set(coords)) == len(coords)


def test_qc_hull_sample_sizes(f2, f2_ball):
    sam = limit_set_sample(f2, f2_ball, 8)
    hull = qc_hull_sample(f2, sam[:50], 20, seed=1)
    assert len(hull) > 20


def test_tree_limit_set_sample_is_read_lazily(f2, f2_ball):
    sam = limit_set_sample(f2, f2_ball, 5)
    assert not isinstance(sam, list)
    assert sam[-1] == TreeBoundary("BBBBBBBB") and sam[:2] == list(sam)[:2]
    with pytest.raises(IndexError):
        sam[len(sam)]
    # rng.sample indexes the sequence, so the draws are those of a list
    assert qc_hull_sample(f2, sam, 40, seed=3) == qc_hull_sample(f2, list(sam), 40, seed=3)


def test_tree_limit_set_sample_lists_no_level(f2):
    # the verify shadow-ball sample: its approximants' words are unranked
    # from their indices, and the ball's 118,097 words are never listed
    ball = enumerate_orbit_ball(f2, 10)
    sam = limit_set_sample(f2, ball, 10)
    n = len(sam)
    assert n == 4 * 3**9
    picks = [sam[i] for i in (0, 1, n // 2, -1)]
    level = reduced_words_of_length(2, 10)
    assert picks == [TreeBoundary(level[i]) for i in (0, 1, n // 2, -1)]


def test_tree_measure_rows_list_no_level(f2):
    # the measure's boundary is its levels with their weights, and its
    # masses count words: the ball's words are never listed
    ball = enumerate_orbit_ball(f2, 8)
    measure = patterson_sullivan_atoms(f2, ball, 1.3)
    assert [k for k, _ in measure.boundary_levels] == [6, 7, 8]
    assert len(measure.boundary_atoms) == 4 * 3**5 * (1 + 3 + 9)
    ball_mass(f2, measure, TreeBoundary("abAB"), cylinder_scale(f2, 2))
    shadow_mass(f2, measure, TreePoint("ab", Fraction(1, 2), "a"), 2.0)
    assert "levels" not in ball.__dict__ and "arrays" not in vars(measure)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_prefix_counts_count_the_listed_words(rank):
    # every word, reduced or not, with letters in and out of the alphabet,
    # against the common prefixes of the listed words of each level
    alphabet = "aAbBcCdD"[: 2 * rank + 2]
    words = ["", "a", "aA", "Aa", "d", "ad"] + [
        "".join(random.Random(i).choice(alphabet) for _ in range(i % 6)) for i in range(60)
    ]
    for ell in range(6):
        level = reduced_words_of_length(rank, ell)
        for w in words:
            want = Counter(_lcp(w, x) for x in level)
            assert _prefix_counts(rank, w, ell) == [want[j] for j in range(min(len(w), ell) + 1)], (w, ell)


def fraction_hull(action, limit_samples, pair_count, seed, points_per_pair=8):
    """The tree branch of `qc_hull_sample` in `TreePoint`/`Fraction`
    arithmetic, the reference of the grid kernel."""
    rng = random.Random(seed)
    space = action.space
    out = []
    for _ in range(pair_count):
        z1, z2 = rng.sample(limit_samples, 2)
        p1, p2 = TreePoint(z1.word), TreePoint(z2.word)
        d = distance(space, p1, p2)
        if d == 0:
            continue
        steps = min(points_per_pair, int(d / space.edge_length) + 1)
        for i in range(steps + 1):
            out.append(geodesic_point(space, p1, p2, d * i / steps))
    return out


@pytest.mark.parametrize("ell", ["1", "9/8", "1/3"])
def test_tree_hull_points_match_the_fraction_reference(ell):
    action = tree_action(edge_length=Fraction(ell))
    L = action.space.edge_length
    # words of 1 to 4 letters: pairs 1 to 8 edges apart, so every split
    # count from 2 to 8 occurs, splits by 3, 5 and 7 among them
    sam = limit_set_sample(action, enumerate_orbit_ball(action, 4 * L), L)
    for seed in range(3):
        got = qc_hull_sample(action, sam, 300, seed=seed)
        want = fraction_hull(action, sam, 300, seed)
        assert [(p.word, p.offset, p.direction) for p in got] == [
            (p.word, p.offset, p.direction) for p in want
        ]
        odd = {q for p in want for q in (3, 5, 7) if (p.offset / L).denominator % q == 0}
        assert odd == {3, 5, 7}
    # a pair at distance 0 gives no points
    assert qc_hull_sample(action, [sam[0], sam[0]], 5) == fraction_hull(action, [sam[0]] * 2, 5, 0) == []


def test_measure_requires_supercritical_s(f2, f2_ball):
    with pytest.raises(MeasureError):
        patterson_sullivan_atoms(f2, f2_ball, 0.9)  # below log 3
    with pytest.raises(MeasureError):
        patterson_sullivan_atoms(f2, f2_ball, -1.0)


def test_measure_is_normalized(f2_measure):
    assert sum(a.weight for a in f2_measure.atoms) == pytest.approx(1.0, rel=1e-12)
    assert all(a.boundary is not None for a in f2_measure.boundary_atoms)


def test_cylinder_mass_closed_form(f2, f2_measure):
    # oracle: with atoms at word lengths 6..8 and weights prop. to
    # 3^{-1.3 k}, every depth-n cylinder carries (3/4) 3^{-n} of the mass
    for n in (1, 2, 3):
        mass, frac = ball_mass(f2, f2_measure, TreeBoundary("ab"[: 1] * n), cylinder_scale(f2, n))
        assert mass == pytest.approx(0.75 * 3.0**-n, rel=1e-6)
        assert frac > 0
    for n in (1, 2, 3):
        cells = tree_cylinder_cells(f2, n)
        m0, _ = ball_mass(f2, f2_measure, cells[0][0], cells[0][1])
        m1, _ = ball_mass(f2, f2_measure, cells[-1][0], cells[-1][1])
        assert m0 == pytest.approx(m1, rel=1e-9)


def test_ball_mass_refuses_unresolvable_scale(f2, f2_measure):
    mass, frac = ball_mass(f2, f2_measure, TreeBoundary("a" * 12), math.exp(-12.0))
    assert mass is None
    assert frac == 0.0


def test_shadow_mass_positive_on_attained_shadows(f2, f2_measure):
    deep = [a for a in f2_measure.boundary_atoms if a.word][0]
    m = shadow_mass(f2, f2_measure, deep.point, 2.0)
    assert m is not None and m > 0


def scalar_ball_mass(action, measure, z, rho, seen=None):
    """Reference: ball_mass as one generalized_ball_contains call per atom.

    `seen`, when given, counts the atoms left out by the depth filter
    ("filtered"), by a DepthError ("depth_error") and by an undecided
    answer ("undecided").
    """
    thr = math.log(1.0 / rho)
    scale = float(action.space.edge_length)
    seen = Counter() if seen is None else seen
    num = den = total = 0.0
    for a in measure.boundary_atoms:
        total += a.weight
        if a.boundary.depth * scale < thr - 1e-12:
            seen["filtered"] += 1
            continue
        try:
            m = generalized_ball_contains(action, z, rho, a.boundary)
        except DepthError:
            seen["depth_error"] += 1
            continue
        if m is None:
            seen["undecided"] += 1
            continue
        den += a.weight
        if m:
            num += a.weight
    if den == 0.0:
        return None, 0.0
    return num / den, den / total


def scalar_shadow_mass(action, measure, y, r):
    """Reference: shadow_mass as one shadow_contains call per atom."""
    num = den = 0.0
    for a in measure.boundary_atoms:
        try:
            m = shadow_contains(action, y, r, a.boundary)
        except DepthError:
            continue
        den += a.weight
        if m:
            num += a.weight
    return num / den if den else None


@pytest.mark.parametrize("ell", [Fraction(1), Fraction(9, 8)], ids=["L=1", "L=9/8"])
def test_tree_masses_match_scalar_rules(ell):
    act = tree_action(edge_length=ell)
    measure = patterson_sullivan_atoms(act, enumerate_orbit_ball(act, 6 * ell), 1.3)
    res = ell / 24
    rng = random.Random(3)
    undecided = 0
    # centers up to twice the atom depth, so truncation is hit both ways
    words = reduced_words_upto(2, 3) + [a.word + "ab"[rng.randrange(2)] * 4 for a in measure.boundary_atoms[::97]]
    for w in words[1::3]:
        z = TreeBoundary(w)
        for rho in [cylinder_scale(act, n) for n in range(1, 9)] + [0.9, 0.3, 0.011]:
            got = ball_mass(act, measure, z, rho)
            assert got == scalar_ball_mass(act, measure, z, rho)
            undecided += got[1] < 1.0
    assert undecided
    for w in words[:53:6] + words[53::3]:
        d = rng.choice([c for c in "aAbB" if not w or c != w[-1].swapcase()])
        for y in (TreePoint(w), TreePoint(w, res, d), TreePoint(w, 23 * res, d)):
            for r in (0.25, 2.5, 7.0):
                assert shadow_mass(act, measure, y, r) == scalar_shadow_mass(act, measure, y, r)


@pytest.mark.parametrize("ell", [Fraction(1), Fraction(9, 8)], ids=["L=1", "L=9/8"])
def test_tree_shadow_rules_match_shadow_contains(ell):
    # the shadow sums against one shadow_contains call per atom, for
    # vertices y and edge points y heading into an atom word (the
    # separation gains y's offset) or out of it, above and below the atom
    # depths, so that undecided atoms occur
    act = tree_action(edge_length=ell)
    measure = patterson_sullivan_atoms(act, enumerate_orbit_ball(act, 5 * ell), 1.3)
    res = ell / 24
    seen = Counter()
    for a in measure.boundary_atoms[3::97]:
        word = a.boundary.word
        w = word + ("bb" if word[-1] == "A" else "aa")  # two letters past the atom
        for j in (0, 1, len(w) - 3, len(w) - 1):
            out = next(c for c in "aAbB" if c != w[j] and (j == 0 or c != w[j - 1].swapcase()))
            for y in (TreePoint(w[:j]), TreePoint(w[:j], 5 * res, w[j]), TreePoint(w[:j], 19 * res, out)):
                for r in (0.25, 2.5):
                    want = [0.0, 0.0]
                    for atom in measure.boundary_atoms:
                        try:
                            m = shadow_contains(act, y, r, atom.boundary)
                        except DepthError:
                            seen["undecided"] += 1
                            continue
                        want[1] += atom.weight
                        if m:
                            want[0] += atom.weight
                        seen[(y.direction == w[j] if y.direction else None, m)] += 1
                    got = _rules(act).shadow_sums(measure, y, r)
                    assert [x.hex() for x in got] == [x.hex() for x in want]
    assert seen["undecided"]
    assert all(seen[(into, m)] for into in (None, True, False) for m in (True, False))


def test_base_ray_points_match_ray_point(f2, schottky, schottky_ball):
    # tree rays on the integer grid, refined for the off-grid 0.3, and None
    # exactly where ray_point raises DepthError; plane rays as ray_points
    cases = [
        (f2, limit_set_sample(f2, enumerate_orbit_ball(f2, 6), 4)[::9]),
        (tree_action(edge_length=Fraction(9, 8)), [TreeBoundary("abAB"), TreeBoundary("aBBaba")]),
        (schottky, limit_set_sample(schottky, schottky_ball, 4.0)[::7]),
    ]
    ts = [0.0, 0.3, 2.0, 4.5, 5.0, 6.75]
    beyond = 0
    for act, samples in cases:
        points_to = _rules(act).ray_points_to(ts)
        for z in samples:
            tree = isinstance(z, TreeBoundary)
            target = z.word if tree else z.coord
            for t, got in zip(ts, points_to(z)):
                if tree and got is not None:
                    D, _, g = got
                    got = _tree_point(g, Fraction(1, D))
                try:
                    want = ray_point(act.space, Ray(act.basepoint, target), t)
                except DepthError:
                    want = None
                    beyond += 1
                assert got == want
    assert beyond
    with pytest.raises(ValueError):
        _rules(f2).ray_points_to([1.0, -0.5])


def test_plane_masses_match_scalar_rules(schottky, l4_ball, l4_measure):
    # the schottky_L4 boundary audit's scales and qc_scale 0.05, plus e^-18,
    # where atoms shallower than depth 18 are filtered; deep atoms as
    # centers meet their own endpoint among the atoms
    lim = limit_set_sample(schottky, l4_ball, 12.0)
    deep = [a.boundary for a in l4_measure.boundary_atoms if a.boundary.depth > 21]
    centers = lim[:30:6] + deep[:50:10]
    pushed = _pushed_measure(schottky, l4_measure, "a")
    seen = Counter()
    for z in centers:
        for rho in (0.1, 0.05, 0.02, math.exp(-18.0)):
            got = ball_mass(schottky, l4_measure, z, rho)
            assert got == scalar_ball_mass(schottky, l4_measure, z, rho, seen)
        # the quasiconformality audit's pullback mass at qc_scale
        got = ball_mass(schottky, pushed, z, 0.05)
        assert got == scalar_ball_mass(schottky, pushed, z, 0.05, seen)
    assert seen["filtered"] and seen["depth_error"] and seen["undecided"]
    masses = []
    for a in l4_measure.boundary_atoms[::150]:
        for r in (1.0, 5.0, 12.0):
            masses.append(shadow_mass(schottky, l4_measure, a.point, r))
            assert masses[-1] == scalar_shadow_mass(schottky, l4_measure, a.point, r)
    assert 0.0 in masses and 0.0 < max(masses) < 1.0


# ---------------------------------------------------------------------------
# audits


def test_ahlfors_audit_tree(f2, f2_measure):
    centers = [z for z, _ in tree_cylinder_cells(f2, 4)[::20]]
    scales = [cylinder_scale(f2, n) for n in (1, 2, 3, 4)]
    rep = check_ahlfors_regularity(f2, f2_measure, math.log(3.0), centers, scales)
    assert rep.passed
    assert rep.A_upper == pytest.approx(0.75, rel=1e-6)
    assert rep.A_lower == pytest.approx(0.75, rel=1e-6)
    assert rep.step1_bound == pytest.approx(3.0**1.5, rel=1e-12)


def test_ahlfors_audit_rejects_dirac_control(f2, f2_measure, monkeypatch):
    # a Dirac mass is no tree Patterson-Sullivan measure, so its masses
    # come from the scalar references
    deep = max(f2_measure.boundary_atoms, key=lambda a: a.displacement)
    dirac = AtomicMeasure((Atom(deep.word, deep.point, deep.displacement, 1.0, deep.boundary),),
                          f2_measure.s, f2_measure.truncation_T)
    monkeypatch.setattr(boundary, "ball_mass", scalar_ball_mass)
    monkeypatch.setattr(boundary, "shadow_mass", scalar_shadow_mass)
    centers = [deep.boundary]
    scales = [cylinder_scale(f2, n) for n in (3, 4, 5)]
    rep = check_ahlfors_regularity(f2, dirac, math.log(3.0), centers, scales)
    assert not rep.passed


def test_quasiconformality_tree_is_conformal(f2, f2_measure):
    rep = check_quasiconformality(f2, f2_measure, math.log(3.0), "a", tree_cylinder_cells(f2, 3))
    assert rep.Q == pytest.approx(1.0, abs=1e-9)
    assert rep.cells_used > 0


def test_quasiconformality_plane_reports_finite_q(schottky):
    ball = enumerate_orbit_ball(schottky, 23.0)
    measure = patterson_sullivan_atoms(schottky, ball, 0.35)
    lim = limit_set_sample(schottky, ball, 12.0)
    cells = [(z, 0.05) for z in lim[:20]]
    rep = check_quasiconformality(schottky, measure, 0.2767, "a", cells)
    assert math.isfinite(rep.Q) and rep.Q >= 1.0


def test_plane_pullback_mass_keeps_the_depth_filter(schottky, l4_measure):
    # the identity pullback of a ball is the ball itself, so its mass must
    # come from the same resolved atom population as ball_mass; at radius
    # e^-18 atoms shallower than depth 18 are left out of both
    measure = l4_measure
    identity = _pushed_measure(schottky, measure, "")
    centers = [a.boundary for a in measure.boundary_atoms if a.boundary.depth > 21][:20]
    rho = math.exp(-18.0)
    assert len(centers) == 20
    for z in centers:
        assert ball_mass(schottky, identity, z, rho) == ball_mass(schottky, measure, z, rho)


def test_plane_quasiconformality_pushes_each_atom_once(schottky, l4_ball, l4_measure, monkeypatch):
    cells = [(z, 0.05) for z in limit_set_sample(schottky, l4_ball, 12.0)[:30]]
    assert len(cells) == 30
    pushes = []
    apply = PlaneIsometry.boundary_apply
    monkeypatch.setattr(PlaneIsometry, "boundary_apply", lambda g, x: pushes.append(x) or apply(g, x))
    rep = check_quasiconformality(schottky, l4_measure, 0.2767, "a", cells)
    assert rep.cells_used > 0
    assert len(pushes) == len(l4_measure.boundary_atoms)


@pytest.mark.parametrize("model, word", [
    ("f2", ""), ("f2", "aA"), ("f2", "c"), ("schottky", ""), ("schottky", "aA"), ("schottky", "c"),
])
def test_quasiconformality_refuses_a_word_that_is_not_reduced_over_the_alphabet(
        request, monkeypatch, model, word):
    # the empty word, or one that reduces to it, compares the measure with
    # itself (Q = 1); a letter outside the alphabet has no isometry. The
    # refusal names the word and comes before any cell is measured
    act = request.getfixturevalue(model)
    if model == "f2":
        measure, cells = request.getfixturevalue("f2_measure"), tree_cylinder_cells(act, 3)
    else:
        measure, cells = request.getfixturevalue("l4_measure"), [(PlaneBoundary(1.0, depth=12.0), 0.05)]
    monkeypatch.setattr(boundary, "ball_mass", lambda *args: pytest.fail("a cell was measured"))
    with pytest.raises(ValueError, match=re.escape(repr(word))):
        check_quasiconformality(act, measure, 0.3, word, cells)


@pytest.mark.parametrize("change, match", [
    (lambda sam: {"ts": []}, "at least one scale T"),
    (lambda sam: {"pair_count": 0}, "pair_count >= 1, got 0"),
    (lambda sam: {"samples": sam[:1]}, "at least 2 boundary samples, got 1"),
], ids=["no-scale", "no-pair", "one-sample"])
def test_shadow_ball_lemma_refuses_an_audit_that_tests_nothing(f2, f2_ball, schottky, schottky_ball,
                                                               change, match):
    # with no scale or no pair every tally would stay 0, a pass that tested
    # nothing; one sample makes no pair
    for act, ball, depth in ((f2, f2_ball, 8), (schottky, schottky_ball, 4.0)):
        sam = limit_set_sample(act, ball, depth)
        args = dict({"samples": sam[:40], "ts": [2.0, 4.0], "pair_count": 100}, **change(sam))
        with pytest.raises(ValueError, match=match):
            check_shadow_ball_lemma(act, **args)


def test_shadow_ball_lemma_refuses_a_scale_whose_ball_radius_underflows(f2, f2_ball, schottky,
                                                                        schottky_ball):
    # e^{-800} is 0.0: its ball has no threshold, on either model
    for act, ball, depth in ((f2, f2_ball, 8), (schottky, schottky_ball, 4.0)):
        sam = limit_set_sample(act, ball, depth)
        with pytest.raises(ParameterError, match=re.escape("radius must be in (0, 1], got 0.0")):
            check_shadow_ball_lemma(act, sam[:40], [2.0, 800.0], pair_count=100)


def test_shadow_ball_lemma_both_models(f2, schottky, schottky_ball):
    tball = enumerate_orbit_ball(f2, 8)
    tsam = limit_set_sample(f2, tball, 8)[::40]
    trep = check_shadow_ball_lemma(f2, tsam, [2.0, 4.0], seed=3, pair_count=100)
    assert trep.passed
    psam = limit_set_sample(schottky, schottky_ball, 4.0)
    prep = check_shadow_ball_lemma(schottky, psam, [2.0, 4.0], seed=3, pair_count=100)
    assert prep.passed
    assert all(ok for _, _, _, ok in prep.pack_cov_rows)


# ---------------------------------------------------------------------------
# the tree measure from its levels, against the object path it replaced


def object_tree_measure(action, ball, s):
    """Reference: the tree Patterson-Sullivan measure as one `Atom` per
    orbit entry, its total a left-to-right sum over the entries; its masses
    are `scalar_ball_mass` and `scalar_shadow_mass`."""
    total = 0.0
    for e in ball.entries:
        total += math.exp(-s * float(e.displacement))
    thresh = 2.0 * float(ball.radius) / 3.0
    atoms = []
    for e in ball.entries:
        w = math.exp(-s * float(e.displacement)) / total
        deep = e.word and float(e.displacement) >= thresh - 1e-12
        atoms.append(Atom(e.word, e.point, float(e.displacement), w,
                          TreeBoundary(e.word) if deep else None))
    return AtomicMeasure(tuple(atoms), s, float(ball.radius))


def atom_bits(atoms):
    return [(a.word, a.point, a.displacement.hex(), a.weight.hex(), a.boundary) for a in atoms]


@pytest.mark.parametrize(
    "valence, ell, s",
    [(4, Fraction(1), 1.3), (4, Fraction(9, 8), 1.2), (4, Fraction(3, 2), 0.9), (6, Fraction(1), 1.8)],
    ids=["L=1", "L=9/8", "L=3/2", "rank3"],
)
def test_tree_measure_levels_match_the_object_path(valence, ell, s, monkeypatch):
    act = tree_action(valence=valence, edge_length=ell)
    depth = 7 if valence == 4 else 5
    ball = enumerate_orbit_ball(act, depth * ell)
    got, want = patterson_sullivan_atoms(act, ball, s), object_tree_measure(act, ball, s)
    step = len(want.boundary_atoms) // 12
    assert len(got.atoms) == len(want.atoms) and len(got.boundary_atoms) == len(want.boundary_atoms)
    assert atom_bits(got.atoms[::7]) == atom_bits(want.atoms[::7])
    assert atom_bits(got.boundary_atoms[-40:]) == atom_bits(want.boundary_atoms[-40:])
    total = 0.0
    for a in want.boundary_atoms:
        total += a.weight
    assert got.boundary_total.hex() == total.hex()
    # masses and decided fractions for words shorter and longer than the
    # atoms, reduced or not, across cylinder and off-cylinder scales
    rng = random.Random(5)
    alphabet = "".join(act.alphabet)
    words = reduced_words_upto(act.rank, 2) + [
        w.word + "".join(rng.choice(alphabet) for _ in range(3)) for w in want.boundary_atoms[::step]
    ]
    for w in words:
        z = TreeBoundary(w) if w else TreeBoundary("a")
        for rho in [cylinder_scale(act, n) for n in (1, 3, depth)] + [0.7, 0.013]:
            m1, m2 = ball_mass(act, got, z, rho), scalar_ball_mass(act, want, z, rho)
            assert repr(m1) == repr(m2)
    # shadow masses at the root, at vertices and at edge points leading
    # into the atom words or out of them
    points = [TreePoint("")]
    for a in want.boundary_atoms[:: 2 * step]:
        w = a.word[: rng.randrange(1, len(a.word) + 1)]
        out = next(c for c in alphabet if c != a.word[len(w) - 1].swapcase() and a.word[len(w):][:1] != c)
        points += [TreePoint(w), TreePoint(w[:-1], ell / 3, w[-1]), TreePoint(w, ell / 8, out)]
    for y in points:
        for r in (0.5, 2.0, 6.0):
            assert repr(shadow_mass(act, got, y, r)) == repr(scalar_shadow_mass(act, want, y, r))
    centers = [z for z, _ in tree_cylinder_cells(act, 3)[::5]]
    scales = [cylinder_scale(act, n) for n in (1, 2, 3, 4)]
    h = math.log(valence - 1) / float(ell)
    cells = tree_cylinder_cells(act, 3)

    def reports(measure):
        return (check_ahlfors_regularity(act, measure, h, centers, scales),
                check_quasiconformality(act, measure, h, "a", cells))

    fast = reports(got)
    monkeypatch.setattr(boundary, "ball_mass", scalar_ball_mass)
    monkeypatch.setattr(boundary, "shadow_mass", scalar_shadow_mass)
    assert repr(fast) == repr(reports(want))


def test_add_copies_matches_the_loop():
    # the exact adder against `acc += w` repeated: random sums across
    # binades, ties (w an odd multiple of half an ulp), powers of two,
    # absorbed and nearly absorbed w, a zero start and subnormals
    rng = random.Random(7)

    def loop(acc, w, n):
        for _ in range(n):
            acc += w
        return acc

    seen = Counter()
    for i in range(6000):
        kind = i % 6
        if kind == 0:
            acc, w = rng.random() * 2.0 ** rng.randrange(-30, 5), rng.random() * 2.0 ** rng.randrange(-40, 5)
        elif kind == 1:
            acc = rng.random() * 2.0 ** rng.randrange(-5, 5)
            w = (rng.randrange(7) + 0.5) * math.ulp(acc) * 2.0 ** rng.randrange(-1, 4)
        elif kind == 2:
            acc, w = rng.choice([0.0, 2.0 ** rng.randrange(-10, 3)]), 2.0 ** rng.randrange(-60, 3)
        elif kind == 3:
            acc = rng.random() + 0.5
            w = math.ulp(acc) * rng.choice([0.25, 0.5, 0.5000001, 0.75, 1.0, 1.5, 2.5])
        elif kind == 4:
            acc, w = 0.0, rng.random() * 1e-3
        else:
            acc, w = 5e-324 * rng.randrange(100), 5e-324 * rng.randrange(1, 50) * rng.choice([1, 2**30])
        n = rng.randrange(600)
        want = loop(acc, w, n)
        assert _add_copies(acc, w, n).hex() == want.hex(), (acc.hex(), w.hex(), n)
        seen["absorbed"] += n > 0 and want == acc
        seen["crossed"] += math.frexp(want)[1] > math.frexp(acc)[1] + 1
    assert seen["absorbed"] and seen["crossed"]


# ---------------------------------------------------------------------------
# tree shadow tests in grid integers, against their Fraction forms


def tree_depth(space, p):
    """Distance from the root vertex (empty word), exact."""
    return len(p.word) * space.edge_length + p.offset


def fraction_shadow_contains(action, y, r, z):
    """shadow_contains on the tree in `TreePoint`/`Fraction` arithmetic."""
    space = action.space
    proxy = TreePoint(z.word)
    sep = _tree_separation(space.edge_length, y, proxy)
    if sep >= tree_depth(space, proxy) and tree_depth(space, y) > sep:
        raise DepthError("shadow test needs a deeper boundary word")
    return float(tree_depth(space, y) - sep) < r


def fraction_product(action, z, zp):
    """The tree rules' product, k * edge_length, as a Fraction."""
    k = _lcp(z.word, zp.word)
    if k >= min(z.depth, zp.depth):
        raise DepthError("truncation")
    return k * action.space.edge_length, action.space.edge_length * 0


def outcome(fn, *args):
    try:
        return fn(*args)
    except DepthError:
        return "DepthError"


@pytest.mark.parametrize("ell", [Fraction(1), Fraction(9, 8), Fraction(1, 3)], ids=["L=1", "L=9/8", "L=1/3"])
def test_tree_shadow_tests_match_the_fraction_forms(ell):
    act = tree_action(edge_length=ell)
    rng = random.Random(11)

    def rand_word(n, w=""):
        while len(w) < n:
            w += rng.choice([c for c in "aAbB" if not w or c != w[-1].swapcase()])
        return w

    # thresholds on and next to the products k L, as floats, and radii on
    # and next to depth differences
    ts = sorted({float(k * ell) + dt for k in range(6) for dt in (-1e-9, 0.0, 2e-9, 0.3)})
    exceeds = _rules(act).exceeds([t + 1e-9 for t in ts])
    seen = Counter()
    for _ in range(400):
        z = TreeBoundary(rand_word(rng.randrange(3, 7)))
        zp = TreeBoundary(rand_word(rng.randrange(3, 7), z.word[: rng.randrange(5)]))
        want = outcome(fraction_product, act, z, zp)
        assert outcome(_rules(act).product, z, zp) == want
        got = outcome(exceeds, z, zp)
        if want == "DepthError":
            assert got == want
            seen["product DepthError"] += 1
            continue
        p, err = want
        assert got == [p - err > t + 1e-9 for t in ts]
        seen["exceeds"] += sum(got)
        assert visual_distance(VisualParams(a=0.7), act, z, zp)[0] == math.exp(-0.7 * float(p))
        # y: a vertex, or a point on an edge at an offset on the edge/8
        # grid or off it (1/7 and 1/3 of the edge, so the grid refines)
        w = rand_word(rng.randrange(4))
        d = rng.choice([c for c in "aAbB" if not w or c != w[-1].swapcase()])
        off = ell * rng.choice([Fraction(1, 8), Fraction(5, 8), Fraction(1, 7), Fraction(2, 3)])
        for y in (TreePoint(w), TreePoint(w, off, d), TreePoint(zp.word[:2], off, zp.word[2])):
            dy = float(tree_depth(act.space, y))
            for r in (0.25, 1.0, dy - float(len(zp.word[:1]) * ell), dy + 1e-12):
                if r <= 0:
                    continue
                want = outcome(fraction_shadow_contains, act, y, r, zp)
                assert outcome(shadow_contains, act, y, r, zp) == want
                seen[want] += 1
    assert seen["product DepthError"] and seen["exceeds"] and seen["DepthError"]
    assert seen[True] and seen[False]
