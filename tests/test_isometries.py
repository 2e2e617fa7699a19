import math
import random
import sys
from fractions import Fraction

import pytest

from hypcrit.errors import ClassificationError
from hypcrit.isometries import (
    IDENTITY_PLANE,
    BoundaryArc,
    PingPongFailure,
    PlaneIsometry,
    SchottkyCertificate,
    SchottkyDescription,
    TreeIsometry,
    _angle_gap,
    _compose_mats,
    _generator_map,
    angle_to_boundary,
    apply_isometry,
    boundary_angle,
    certify_ping_pong,
    compose,
    schottky_pair,
    translation_length,
)
from hypcrit.orbits import DRIFT, PLANE_RADIUS_LIMIT, enumerate_orbit_ball, schottky_action
from hypcrit.space import ModelSpace, PlanePoint, TreePoint, distance, plane_distance
from hypcrit.words import reduced_words_upto

TREE = ModelSpace.tree()
PLANE = ModelSpace.plane()


def hyperbolic_shift(t):
    return PlaneIsometry.from_matrix(math.exp(t / 2), 0.0, 0.0, math.exp(-t / 2))


def test_tree_isometry_acts_by_left_multiplication():
    g = TreeIsometry("ab")
    assert apply_isometry(TREE, g, TreePoint("")) == TreePoint("ab")
    assert apply_isometry(TREE, g, TreePoint("Ba")) == TreePoint("aa")
    assert apply_isometry(TREE, g.inverse(), apply_isometry(TREE, g, TreePoint("bA"))) == TreePoint("bA")


def test_compose_matches_sequential_application():
    rng = random.Random(5)
    for _ in range(100):
        g = hyperbolic_shift(rng.uniform(-2, 2))
        h = PlaneIsometry.from_matrix(1.0, rng.uniform(-2, 2), 0.0, 1.0)
        z = PlanePoint(complex(rng.uniform(-2, 2), rng.uniform(0.2, 3)))
        lhs = apply_isometry(PLANE, compose(g, h), z)
        rhs = apply_isometry(PLANE, g, apply_isometry(PLANE, h, z))
        assert plane_distance(lhs.z, rhs.z) < 1e-9


def test_products_past_a_cancelled_determinant_compose():
    # at L = 4, ad and bc agree to the last bit for 279 of the 78,732
    # reduced words of length 10 (as "baaaaaaaab"), so the computed det of
    # the product cancels to <= 0; the product is normalized by the exact
    # det 1, which leaves it as computed up to the canonical sign
    gen_map = _generator_map(schottky_pair(4.0).generators)
    level = [("", IDENTITY_PLANE.mat)]
    for _ in range(9):
        level = [(w + c, _compose_mats(m, gen_map[c].mat)) for w, m in level
                 for c in "aAbB" if c != w[-1:].swapcase()]
    words, cancelled = [], []
    for w, (a1, b1, c1, d1) in level:
        for c in "aAbB":
            if c == w[-1].swapcase():
                continue
            a2, b2, c2, d2 = gen_map[c].mat
            raw = (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2, c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)
            words.append(w + c)
            if raw[0] * raw[3] - raw[1] * raw[2] <= 0:
                cancelled.append((w + c, raw))
    assert len(words) == 78732 and len(cancelled) == 279
    assert "baaaaaaaab" in {w for w, _ in cancelled}
    for w, raw in cancelled:
        got = scalar_product(gen_map, w).mat
        assert got in (raw, tuple(-x for x in raw))
        # a matrix given as input still needs a positive determinant
        with pytest.raises(ValueError):
            PlaneIsometry.from_matrix(*raw)


def exact_image_of_i(gen_map, word):
    """g(i) for the exact product of the float generator entries."""
    m = (Fraction(1), Fraction(0), Fraction(0), Fraction(1))
    for ch in word:
        a1, b1, c1, d1 = m
        a2, b2, c2, d2 = map(Fraction, gen_map[ch].mat)
        m = (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2, c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)
    a, b, c, d = m
    den = c * c + d * d
    return complex((a * c + b * d) / den, (a * d - b * c) / den)


def exact_displacement(gen_map, word):
    """d(i, g i) for the exact product g of the float generator entries,
    from cosh d = (a^2 + b^2 + c^2 + d^2) / (2 det), rounded once."""
    m = (Fraction(1), Fraction(0), Fraction(0), Fraction(1))
    for ch in word:
        a1, b1, c1, d1 = m
        a2, b2, c2, d2 = map(Fraction, gen_map[ch].mat)
        m = (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2, c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)
    a, b, c, d = m
    return math.acosh((a * a + b * b + c * c + d * d) / (2 * (a * d - b * c)))


@pytest.mark.parametrize("L", [4.0, 3.7])
def test_images_of_i_at_depth_match_the_exact_products(L):
    # the float image of i is off by a few eps cosh d(i, g i) (the division
    # behind its imaginary part cancels ad against bc), 8 eps cosh d at most
    # here, and so is its displacement (DRIFT cosh d), for 150 sampled
    # entries of each word length of the ball at PLANE_RADIUS_LIMIT
    desc = schottky_pair(L)
    gen_map = _generator_map(desc.generators)
    ball = enumerate_orbit_ball(schottky_action(desc, certify_ping_pong(desc)), PLANE_RADIUS_LIMIT)
    eps = sys.float_info.epsilon
    rng = random.Random(4)
    by_length = {}
    for e in ball.entries:
        by_length.setdefault(len(e.word), []).append(e)
    worst = worst_disp = 0.0
    for k, level in sorted(by_length.items()):
        for e in rng.sample(level, min(150, len(level))):
            a, b, c, d = e.isometry.mat
            assert a * d - b * c > 0
            exact = exact_image_of_i(gen_map, e.word)
            disp = exact_displacement(gen_map, e.word)
            worst = max(worst, plane_distance(e.point.z, exact) / (eps * math.cosh(disp)))
            worst_disp = max(worst_disp, abs(e.displacement - disp) / math.cosh(disp))
    assert worst <= 8.0 and worst_disp <= DRIFT
    # the deepest words reach length 10 at L = 3.7
    assert max(by_length) >= (8 if L == 4.0 else 10)


def scalar_product(gen_map, word):
    g = IDENTITY_PLANE
    for c in word:
        g = compose(g, gen_map[c])
    return g


def scalar_displacements(desc, length):
    """{word: d(i, w i)} over the reduced words of length <= `length`, one
    scalar `compose` product and `apply_isometry` each."""
    gen_map = _generator_map(desc.generators)
    return {
        w: plane_distance(1j, apply_isometry(PLANE, scalar_product(gen_map, w), PLANE.basepoint).z)
        for w in reduced_words_upto(2, length)
    }


@pytest.mark.parametrize("L", [3.0, 4.0, 4.5, 4.0078125, 5.0, 6.0])
def test_certificate_survey_matches_the_scalar_words(L):
    # the survey of the words of length <= 6 the certificate no longer
    # runs: its least displacement, first in string order among equals, is
    # the certificate's systole bound and word, bitwise, at a letter
    desc = schottky_pair(L)
    disp = scalar_displacements(desc, 6)
    cert = certify_ping_pong(desc)
    systole, word = min((d, w) for w, d in disp.items() if w)
    assert (cert.systole_bound.hex(), cert.attaining_word) == (systole.hex(), word)
    assert len(word) == 1


@pytest.mark.parametrize("L", [1.8, 2.0, 3.0, 4.0, 4.5])
def test_every_letter_raises_the_displacement_by_the_certified_step(L):
    # the arc test's claim d(i, w c i) >= d(i, w i) + step_bound, on every
    # reduced word of length <= 8; the least step is 0.41 at L = 1.8,
    # against a certified 0.053
    desc = schottky_pair(L)
    disp = scalar_displacements(desc, 8)
    cert = certify_ping_pong(desc)
    assert cert.step_bound > 0
    least = min(disp[w] - disp[w[:-1]] for w in disp if w)
    assert least >= cert.step_bound


def test_isometries_preserve_distance():
    rng = random.Random(6)
    for _ in range(100):
        g = compose(hyperbolic_shift(rng.uniform(-2, 2)),
                    PlaneIsometry.from_matrix(1.0, rng.uniform(-2, 2), 0.0, 1.0))
        z1 = PlanePoint(complex(rng.uniform(-2, 2), rng.uniform(0.2, 3)))
        z2 = PlanePoint(complex(rng.uniform(-2, 2), rng.uniform(0.2, 3)))
        d0 = float(distance(PLANE, z1, z2))
        d1 = float(distance(PLANE, apply_isometry(PLANE, g, z1), apply_isometry(PLANE, g, z2)))
        assert d1 == pytest.approx(d0, abs=1e-9)


def test_translation_length_of_diagonal_matrix():
    # oracle: translation length of diag(e^{t/2}, e^{-t/2}) is exactly t
    for t in (0.5, 1.0, 4.0):
        assert translation_length(PLANE, hyperbolic_shift(t)) == pytest.approx(t, abs=1e-9)


def test_translation_length_rejects_elliptic_and_parabolic():
    rot = PlaneIsometry.from_matrix(math.cos(1.0), math.sin(1.0), -math.sin(1.0), math.cos(1.0))
    with pytest.raises(ClassificationError):
        translation_length(PLANE, rot)
    shift = PlaneIsometry.from_matrix(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ClassificationError):
        translation_length(PLANE, shift)


def test_tree_translation_length_is_cyclic_word_length():
    assert translation_length(TREE, TreeIsometry("ab")) == 2
    assert translation_length(TREE, TreeIsometry("abA")) == 1  # conjugate of b


def test_matrix_normalization():
    g = PlaneIsometry.from_matrix(2.0, 0.0, 0.0, 0.5)
    a, b, c, d = g.mat
    assert a * d - b * c == pytest.approx(1.0, abs=1e-12)
    assert IDENTITY_PLANE.is_identity
    with pytest.raises(ValueError):
        PlaneIsometry.from_matrix(1.0, 0.0, 0.0, -1.0)


def test_schottky_pair_certifies_at_l4():
    desc = schottky_pair(4.0)
    cert = certify_ping_pong(desc)
    assert isinstance(cert, SchottkyCertificate)
    assert cert.systole_bound == pytest.approx(4.0, abs=1e-9)
    assert cert.step_bound > 0.0


def test_ping_pong_fails_when_disks_collide():
    # short translation lengths shrink the gap between the disks to nothing
    desc = schottky_pair(0.5)
    got = certify_ping_pong(desc)
    assert isinstance(got, PingPongFailure)
    assert got.reason == "disks not disjoint"


@pytest.mark.parametrize("L", [4.5, 4.25, 4.125, 4.0625, 4.03125, 4.015625, 4.0078125, 4.0])
def test_schottky_family_members_certify(L):
    # the schottky_family scenario's schedule and its limit
    assert isinstance(certify_ping_pong(schottky_pair(L)), SchottkyCertificate)


def _with_disks(desc, i, src, tgt):
    disks = list(desc.disks)
    disks[i] = (src, tgt)
    return SchottkyDescription(desc.generators, tuple(disks))


def test_ping_pong_rejects_a_slightly_short_target_arc():
    # the standard disks are tight: a target arc 1e-4 rad short misses the
    # image of the source exterior near both of its endpoints
    desc = schottky_pair(4.0)
    src, tgt = desc.disks[0]
    short = BoundaryArc(tgt.center, tgt.half_width - 1e-4)
    got = certify_ping_pong(_with_disks(desc, 0, src, short))
    assert isinstance(got, PingPongFailure)
    assert got.reason == "nesting violated by generator"


def test_ping_pong_refuses_a_disk_that_holds_the_basepoint():
    desc = schottky_pair(4.0)
    src, tgt = desc.disks[0]
    got = certify_ping_pong(_with_disks(desc, 0, BoundaryArc(src.center, 1.6), tgt))
    assert got == PingPongFailure("disk holds the basepoint i", ("src", 0))


def test_arc_test_refuses_an_off_centre_conjugate():
    # schottky_pair(2) conjugated by z -> z + 0.3 passes the disjointness and
    # nesting checks, but the Dirichlet half-plane of b reaches 0.044 rad
    # into the target disk of a, so i is no basepoint the certificate
    # vouches for
    shift = PlaneIsometry.from_matrix(1.0, 0.3, 0.0, 1.0)
    gens = [compose(compose(shift, g), shift.inverse()) for g in schottky_pair(2.0).generators]
    got = certify_ping_pong(SchottkyDescription.with_standard_disks(gens))
    assert got == PingPongFailure("Dirichlet half-plane of letter b meets a disk", ("b", ("tgt", 0)))


def _sampled_nesting_failure(desc):
    """Reference: whether some generator maps one of 10,000 sampled angles
    outside its source arc out of its target arc, or its inverse a sampled
    angle outside the target arc out of the source arc."""

    def contains(arc, theta):
        return abs(_angle_gap(theta, arc.center)) <= arc.half_width

    thetas = [-math.pi + (2.0 * math.pi) * (k + 0.5) / 10_000 for k in range(10_000)]
    for i, g in enumerate(desc.generators):
        src, tgt = desc.disks[i]
        ginv = g.inverse()
        for theta in thetas:
            x = angle_to_boundary(theta)
            if not contains(src, theta) and not contains(tgt, boundary_angle(g.boundary_apply(x))):
                return True
            if not contains(tgt, theta) and not contains(src, boundary_angle(ginv.boundary_apply(x))):
                return True
    return False


def test_exact_nesting_rejects_whatever_sampling_rejects():
    rng = random.Random(11)
    base = schottky_pair(4.0)
    sampled_rejects = exact_only = 0
    for _ in range(40):
        i = rng.randrange(2)
        arcs = [
            BoundaryArc(
                arc.center + rng.choice((-1, 1)) * 10 ** rng.uniform(-6, -1),
                arc.half_width + rng.choice((-1, 1)) * 10 ** rng.uniform(-6, -1),
            )
            for arc in base.disks[i]
        ]
        desc = _with_disks(base, i, *arcs)
        exact = certify_ping_pong(desc)
        if isinstance(exact, PingPongFailure) and exact.reason == "disks not disjoint":
            continue
        # the nesting checks run before the arc test
        exact_rejects = isinstance(exact, PingPongFailure) and exact.reason.startswith("nesting")
        if _sampled_nesting_failure(desc):
            sampled_rejects += 1
            assert exact_rejects
        elif exact_rejects:
            exact_only += 1
    assert sampled_rejects >= 10
    # perturbations below the sampling spacing slip past the sampler
    assert exact_only >= 1


def test_certificate_words_are_honest_displacements():
    desc = schottky_pair(4.0)
    cert = certify_ping_pong(desc)
    act_base = PlanePoint(1j)
    for g in desc.generators:
        d = float(distance(PLANE, act_base, apply_isometry(PLANE, g, act_base)))
        assert d >= cert.systole_bound - 1e-9


def test_standard_disks_description_roundtrip():
    desc = SchottkyDescription.with_standard_disks(schottky_pair(4.0).generators)
    assert len(desc.generators) == 2
    # one (repelling, attracting) arc pair per generator
    assert len(desc.disks) == 2
    assert all(len(pair) == 2 for pair in desc.disks)
