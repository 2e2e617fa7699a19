"""End-to-end acceptance suite.

Each test covers one headline guarantee and prints a single PASS/FAIL
line with the measured figures, so the -s output doubles as a short
certification report.
"""

import functools
import json
import math
import random
import time
from collections import defaultdict
from fractions import Fraction

import pytest

from hypcrit import cli
from hypcrit.boundary import (
    TreeBoundary,
    ball_mass,
    check_shadow_ball_lemma,
    cylinder_scale,
    limit_set_sample,
    patterson_sullivan_atoms,
    qc_hull_sample,
)
from hypcrit.convergence import (
    ApproximationWitness,
    ContinuityConfig,
    run_continuity_experiment,
    search_witness,
    snapshot,
    verify_witness,
)
from hypcrit.entropy import (
    check_entropy_lower_bound,
    check_packing_chain,
    check_packing_growth,
    equidistribution_constant,
    estimate_critical_exponent,
)
from hypcrit.errors import CertificationError
from hypcrit.geometry_checks import SamplingPlan, check_geodesic_lemmas, _rand_plane_point, _rand_tree_point
from hypcrit.isometries import PingPongFailure, certify_ping_pong, schottky_pair
from hypcrit.orbits import (
    check_generating,
    check_word_metric_comparison,
    enumerate_orbit_ball,
    schottky_action,
    tree_action,
)
from hypcrit.space import ModelSpace
from hypcrit.words import reduced_words_of_length
from word_oracle import brute_force_reduced_words_upto

LOG3 = math.log(3.0)


def criterion(label):
    """Print one PASS/FAIL line per acceptance criterion."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print("FAIL  %s" % label)
                raise
            print("PASS  %s%s" % (label, " -- " + detail if detail else ""))

        return run

    return wrap


@pytest.fixture(scope="module")
def f2():
    return tree_action()


@pytest.fixture(scope="module")
def f2_ball10(f2):
    return enumerate_orbit_ball(f2, 10)


@pytest.fixture(scope="module")
def f2_counts(f2_ball10):
    return [(int(t), n) for t, n in f2_ball10.count_by_shell]


@pytest.fixture(scope="module")
def schottky():
    desc = schottky_pair(4.0)
    cert = certify_ping_pong(desc)
    assert not isinstance(cert, PingPongFailure)
    return schottky_action(desc, cert)


@pytest.fixture(scope="module")
def schottky_ball(schottky):
    return enumerate_orbit_ball(schottky, 23.0)


@criterion("1. exact tree counts, < 10 s")
def test_exact_tree_counts(f2, f2_counts):
    t0 = time.perf_counter()
    ball = enumerate_orbit_ball(f2, 10)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    counts = dict((int(t), n) for t, n in ball.count_by_shell)
    for n in range(11):
        assert counts[n] == 2 * 3**n - 1
    assert set(ball.words()) == set(brute_force_reduced_words_upto(2, 10))
    return "N(10)=%d, %.1f s" % (counts[10], elapsed)


@criterion("2. critical exponent within tolerance, scale covariant")
def test_critical_exponent(f2_counts):
    est = estimate_critical_exponent(f2_counts, (4, 10))
    assert abs(est.h_hat - LOG3) <= 0.01
    act2 = tree_action(edge_length=Fraction(2))
    ball2 = enumerate_orbit_ball(act2, 20)
    counts2 = [(float(t), n) for t, n in ball2.count_by_shell]
    est2 = estimate_critical_exponent(counts2, (8, 20))
    assert abs(est2.h_hat - LOG3 / 2.0) <= 0.005
    return "h=%.5f, h(edge 2)=%.5f" % (est.h_hat, est2.h_hat)


@criterion("3. equidistribution constant <= 2 on F2, <= 4 across rescalings")
def test_equidistribution_constant(f2_counts):
    rep = equidistribution_constant(f2_counts, LOG3)
    assert rep.K_measured <= 2.0 + 1e-9
    worst = rep.K_measured
    for n in range(1, 9):
        ell = Fraction(1) + Fraction(1, 2**n)
        ball = enumerate_orbit_ball(tree_action(edge_length=ell), 8 * ell)
        counts = [(float(t), c) for t, c in ball.count_by_shell]
        k = equidistribution_constant(counts, LOG3 / float(ell)).K_measured
        worst = max(worst, k)
        assert k <= 4.0
    return "K(F2)=%.6f, max K over rescalings=%.6f" % (rep.K_measured, worst)


@criterion("4. rescaling continuity experiment, < 2 min")
def test_tree_rescaling_continuity():
    t0 = time.perf_counter()
    cfg = ContinuityConfig(param_scale=float)
    schedule = [Fraction(1) + Fraction(1, 2**n) for n in range(1, 9)]
    rep = run_continuity_experiment(
        lambda ell: tree_action(edge_length=ell), schedule, Fraction(1), cfg
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    assert rep.passed
    for row in rep.rows:
        assert row.residual <= 0.01
    eps = [row.eps for row in rep.rows]
    assert all(a >= b for a, b in zip(eps, eps[1:]))
    assert eps[-1] == 0.25  # the ladder floor set by the resolution rule
    return "eps %.3g -> %.3g, max residual %.2e, %.0f s" % (
        eps[0], eps[-1], max(r.residual for r in rep.rows), elapsed
    )


@criterion("5. Ahlfors regularity of the cylinder measure")
def test_ahlfors_regularity(f2, f2_ball10):
    measure = patterson_sullivan_atoms(f2, f2_ball10, 1.3)
    worst_lo, worst_hi = 1.0, 0.0
    for n in range(1, 9):
        rho = cylinder_scale(f2, n)
        pop = [a for a in measure.boundary_atoms if len(a.word) >= n]
        den = sum(a.weight for a in pop)
        mass = defaultdict(float)
        for a in pop:
            mass[a.word[:n]] += a.weight
        cyls = reduced_words_of_length(2, n)
        assert set(mass) == set(cyls)
        for w in cyls:
            ratio = (mass[w] / den) / rho**LOG3
            worst_lo = min(worst_lo, ratio)
            worst_hi = max(worst_hi, ratio)
            assert 0.73 <= ratio <= 0.77
        # the aggregation used above must agree with ball_mass itself
        for w in cyls[:: max(1, len(cyls) // 4)][:5]:
            got, _ = ball_mass(f2, measure, TreeBoundary(w), rho)
            assert got == pytest.approx(mass[w] / den, rel=1e-12)
    step1 = math.exp(LOG3 * (55.0 * f2.declared_delta + 3.0 * f2.declared_codiameter))
    assert step1 == pytest.approx(3.0**1.5, rel=1e-12)
    margin = step1 / worst_hi
    assert margin > 5.0
    return "ratio in [%.4f, %.4f], Step-1 margin %.2fx" % (worst_lo, worst_hi, margin)


@criterion("6. explicit-constant bound suite, >= 1e3 configs per check")
def test_explicit_constant_suite(f2, schottky, schottky_ball):
    f2_ball6 = enumerate_orbit_ball(f2, 6)
    assert f2_ball6.count >= 1000 and schottky_ball.count >= 1000

    # entropy lower bound at the measured exponents, plus a sampled sweep
    ok, _ = check_entropy_lower_bound(LOG3, 0.0, 0.5)
    assert ok
    ok, _ = check_entropy_lower_bound(0.27, schottky.declared_delta, 3.0)
    assert ok
    rng = random.Random(0)
    for _ in range(1000):
        delta, D = rng.uniform(0, 2), rng.uniform(0.1, 4)
        bound = math.log(2.0) / (99.0 * delta + 10.0 * D)
        assert check_entropy_lower_bound(bound + 1e-9, delta, D)[0]
        assert not check_entropy_lower_bound(bound - 1e-3, delta, D, tolerance=0.0)[0]

    # word-metric comparison on every ball entry
    assert check_word_metric_comparison(f2, f2_ball6, 2.0).passed
    thresh = 2.0 * schottky.declared_codiameter + 72.0 * schottky.declared_delta
    assert check_word_metric_comparison(schottky, schottky_ball, thresh + 1.0).passed

    # generating-set reachability on every ball entry
    assert check_generating(f2, f2_ball6).passed
    assert check_generating(schottky, schottky_ball, threshold=4.5).passed

    # packing growth over >= 1e3 hull samples
    tlim = limit_set_sample(f2, f2_ball6, 6)
    thull = qc_hull_sample(f2, tlim, 150, seed=5)
    assert len(thull) >= 1000
    assert check_packing_growth(f2, thull, [2.0, 4.0, 6.0], 1.0).passed
    plim = limit_set_sample(schottky, schottky_ball, 8.0)
    phull = qc_hull_sample(schottky, plim, 130, seed=5)
    assert len(phull) >= 1000
    assert check_packing_growth(schottky, phull, [2.0, 4.0, 6.0], 1.0).passed

    # pack/cov chain on 1000 sampled point subsets (500 per model)
    tree_space, plane_space = f2.space, ModelSpace.plane()
    for i in range(500):
        rng2 = random.Random(1000 + i)
        pts = [_rand_tree_point(rng2, tree_space, 4.0) for _ in range(8)]
        assert check_packing_chain(tree_space, pts, rng2.uniform(0.3, 1.2))[0]
        pts = [_rand_plane_point(rng2, 4.0) for _ in range(8)]
        assert check_packing_chain(plane_space, pts, rng2.uniform(0.3, 1.2))[0]
    return "all bound checks zero-violation on both models"


@criterion("7. geodesic and shadow-ball lemma suites at 1e3 configurations")
def test_geodesic_lemma_suites(f2, schottky, schottky_ball):
    tree_rep = check_geodesic_lemmas(f2.space, 0.0, SamplingPlan(count=1000, seed=0))
    assert tree_rep.passed
    assert all(r.max_defect == 0.0 for r in tree_rep.rows)
    plane_rep = check_geodesic_lemmas(
        ModelSpace.plane(), math.log(3.0), SamplingPlan(count=1000, seed=0)
    )
    assert plane_rep.passed

    tball = enumerate_orbit_ball(f2, 10)
    tsam = limit_set_sample(f2, tball, 10)[::300]
    trep = check_shadow_ball_lemma(f2, tsam, [2.0, 4.0, 6.0, 8.0], seed=3, pair_count=250)
    assert trep.passed
    psam = limit_set_sample(schottky, schottky_ball, 4.0)
    prep = check_shadow_ball_lemma(schottky, psam, [2.0, 4.0, 6.0, 8.0], seed=3, pair_count=250)
    assert prep.passed

    control = check_geodesic_lemmas(ModelSpace.plane(), 0.0, SamplingPlan(count=1000, seed=0))
    assert not control.passed
    witnesses = [r.witness for r in control.rows if not r.passed]
    assert witnesses and all(witnesses)
    return "zero violations; delta=0 control produced %d witnesses" % len(witnesses)


@criterion("8. witness machinery: identity, swap rejection, search, monotone")
def test_witness_machinery(f2):
    ball = enumerate_orbit_ball(f2, 4)
    snap = snapshot(f2, ball, 0.5, resolution=Fraction(1, 16))

    ident = ApproximationWitness(
        tuple(range(len(snap.points))),
        tuple(range(len(snap.elements))),
        tuple(range(len(snap.elements))),
        2.0 * snap.covering_radius,
    )
    valid, defects = verify_witness(snap, snap, ident)
    assert valid

    words = [el.word for el in snap.elements]
    swap = {"a": "b", "b": "a", "A": "B", "B": "A"}
    phi = tuple(words.index(swap.get(w, w)) for w in words)
    eps = 0.5
    bad = ApproximationWitness(ident.f, phi, ident.psi, eps)
    valid_bad, bad_defects = verify_witness(snap, snap, bad)
    systole = 1.0
    assert not valid_bad
    assert bad_defects.phi_equivariance >= systole - eps

    ell = Fraction(1) + Fraction(1, 64)
    near = tree_action(edge_length=ell)
    nsnap = snapshot(near, enumerate_orbit_ball(near, 4 * ell), 0.5, resolution=ell / 16)
    got = search_witness(nsnap, snap, 0.5)
    assert isinstance(got, ApproximationWitness)
    assert got.defects.worst() < 0.5

    rng = random.Random(21)
    grid = [0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 4.0, 8.0]
    n_pts, n_els = len(snap.points), len(snap.elements)
    for _ in range(100):
        w = ApproximationWitness(
            tuple(rng.randrange(n_pts) for _ in range(n_pts)),
            tuple(rng.randrange(n_els) for _ in range(n_els)),
            tuple(rng.randrange(n_els) for _ in range(n_els)),
            1.0,
        )
        verdicts = [
            verify_witness(snap, snap, ApproximationWitness(w.f, w.phi, w.psi, e))[0]
            for e in grid
        ]
        assert verdicts == sorted(verdicts)
    return "search defect %.4f at eps 0.5; swap defect %.3f" % (
        got.defects.worst(), bad_defects.phi_equivariance
    )


@criterion("9. counterexample scenarios rejected with nonzero exits")
def test_negative_control_scenarios(tmp_path, capsys):
    codes = {}
    for name in (
        "counterexample_translation",
        "counterexample_schottky_small",
        "counterexample_elliptic",
    ):
        codes[name] = cli.main(["entropy", "--scenario", name, "--out", str(tmp_path / name)])
    err = capsys.readouterr().err
    assert all(code != 0 for code in codes.values())
    assert err.count("systole below class threshold") == 2
    assert "ClassificationError" in err and "elliptic" in err
    return "exit codes %s" % sorted(codes.values())


@criterion("10. Schottky stretch family Cauchy audit, < 5 min")
def test_schottky_family_cauchy(schottky):
    t0 = time.perf_counter()

    def member(L):
        desc = schottky_pair(float(L))
        cert = certify_ping_pong(desc)
        if isinstance(cert, PingPongFailure):
            raise CertificationError("ping-pong certification failed: %s" % (cert,))
        return schottky_action(desc, cert)

    cfg = ContinuityConfig(
        ball_T=23.0,
        eps_ladder=(0.5, 0.25, 1 / 4.6, 1 / 6.5, 1 / 8.5, 1 / 10.5, 1 / 12.5),
        rank_window=(53, 485),
        param_scale=lambda L: L / 4.0,
    )
    schedule = [4.0 + 2.0**-n for n in range(1, 8)]
    rep = run_continuity_experiment(member, schedule, 4.0, cfg)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    assert rep.passed
    hs = [row.h_hat for row in rep.rows]
    diffs = [abs(a - b) for a, b in zip(hs, hs[1:])]
    ratios = [a / b for a, b in zip(diffs, diffs[1:])]
    assert all(r >= 1.5 for r in ratios)
    return "shrink ratios %.2f..%.2f, h -> %.5f, %.1f s" % (
        min(ratios), max(ratios), rep.h_limit, elapsed
    )
