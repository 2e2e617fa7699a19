import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hypcrit.errors import ClassificationError
from hypcrit.isometries import (
    IDENTITY_PLANE,
    BoundaryArc,
    PingPongFailure,
    PlaneIsometry,
    SchottkyCertificate,
    SchottkyDescription,
    WORD_HORIZON,
    TreeIsometry,
    _angle_gap,
    _compose_rows,
    _images_of_i,
    _word_levels,
    angle_to_boundary,
    apply_isometry,
    boundary_angle,
    certify_ping_pong,
    compose,
    schottky_pair,
    translation_length,
)
from hypcrit.orbits import PLANE_RADIUS_LIMIT
from hypcrit.space import ModelSpace, PlanePoint, TreePoint, distance, plane_distance
from hypcrit.words import letters, reduced_words_of_length, reduced_words_upto

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


def test_row_kernels_match_compose_and_apply_bitwise():
    rng = random.Random(7)
    rot = PlaneIsometry.from_matrix(1.0, -1.0, 1.0, 1.0)  # |c| = |d|
    shift = hyperbolic_shift(4.0)
    mats = [IDENTITY_PLANE, shift, shift.inverse(), rot, rot.inverse()]
    mats += [PlaneIsometry.from_matrix(1.0, 0.0, t, 1.0) for t in (-2.0, 0.5)]
    for _ in range(40):
        upper = PlaneIsometry.from_matrix(1.0, rng.uniform(-3, 3), 0.0, 1.0)
        lower = PlaneIsometry.from_matrix(1.0, 0.0, rng.uniform(-3, 3), 1.0)
        mats.append(compose(hyperbolic_shift(rng.uniform(-6, 6)), compose(upper, lower)))
    # entries of both signed zeros, as inverses of diagonal matrices have
    zeros = {math.copysign(1.0, x) for g in mats for x in g.mat if x == 0}
    assert zeros == {1.0, -1.0}
    g = np.array([a.mat for a in mats for _ in mats])
    h = np.array([b.mat for _ in mats for b in mats])
    rows = _compose_rows(g, h)
    want = [compose(a, b) for a in mats for b in mats]
    assert [tuple(x.hex() for x in r) for r in rows.tolist()] == [
        tuple(x.hex() for x in w.mat) for w in want
    ]
    got = _images_of_i(np.array([w.mat for w in mats + want]))
    for w, z in zip(mats + want, got):
        ref = apply_isometry(PLANE, w, PLANE.basepoint).z
        assert (z.real.hex(), z.imag.hex()) == (ref.real.hex(), ref.imag.hex())


def test_row_kernels_at_the_sign_and_zero_edges():
    # the product's leading entry is -1e-10: within MAT_TOL of nothing, so
    # the row is negated like the scalar product
    g = PlaneIsometry.from_matrix(1.0, 1.0, 0.0, 1.0)
    h = PlaneIsometry.from_matrix(1.0, 0.0, -1.0 - 1e-10, 1.0)
    lead = g.mat[0] * h.mat[0] + g.mat[1] * h.mat[2]
    assert -1e-9 < lead < -1e-12
    row = _compose_rows(np.array([g.mat]), np.array([h.mat]))[0]
    assert [x.hex() for x in row] == [x.hex() for x in compose(g, h).mat]
    # b = -0.0 and c / d underflowing to -0.0: g(i) = (0.5 i - 0) / (-5e-324 i
    # + 2) has real part +0.0, which only CPython's a * 0 - 0 + b gives
    w = PlaneIsometry.from_matrix(0.5, -0.0, -5e-324, 2.0)
    ref = apply_isometry(PLANE, w, PLANE.basepoint).z
    assert math.copysign(1.0, ref.real) == 1.0
    (z,) = _images_of_i(np.array([w.mat]))
    assert (z.real.hex(), z.imag.hex()) == (ref.real.hex(), ref.imag.hex())


def test_word_levels_are_the_scalar_prefix_products():
    desc = schottky_pair(4.0)
    alph = letters(2)
    gen_map = dict(zip(alph, [g for h in desc.generators for g in (h, h.inverse())]))
    levels = _word_levels(gen_map, alph)
    for k in range(1, 6):
        words, mats = next(levels)
        assert words == reduced_words_of_length(2, k)
        for w, row in zip(words, mats.tolist()):
            assert [x.hex() for x in row] == [x.hex() for x in scalar_product(gen_map, w).mat]


def test_products_past_a_cancelled_determinant_compose():
    # at L = 4, ad and bc agree to the last bit for 279 of the 78,732
    # reduced words of length 10 (as "baaaaaaaab"), so the computed det of
    # the product cancels to <= 0; the product is normalized by the exact
    # det 1, which leaves it as computed up to the canonical sign, bitwise
    # the scalar chain
    desc = schottky_pair(4.0)
    alph = letters(2)
    gen_map = dict(zip(alph, [g for h in desc.generators for g in (h, h.inverse())]))
    levels = _word_levels(gen_map, alph)
    for _ in range(9):
        parents, parent_rows = next(levels)
    words, rows = next(levels)
    gens = np.array([gen_map[w[-1]].mat for w in words])
    a1, b1, c1, d1 = parent_rows[np.arange(len(words)) // 3].T
    a2, b2, c2, d2 = gens.T
    raw = np.stack((a1 * a2 + b1 * c2, a1 * b2 + b1 * d2, c1 * a2 + d1 * c2, c1 * b2 + d1 * d2), axis=1)
    a, b, c, d = raw.T
    cancelled = np.flatnonzero(a * d - b * c <= 0)
    assert len(words) == 78732 and len(cancelled) == 279
    assert "baaaaaaaab" in {words[i] for i in cancelled}
    same, flipped = rows[cancelled] == raw[cancelled], rows[cancelled] == -raw[cancelled]
    assert (same.all(axis=1) | flipped.all(axis=1)).all()
    for i in cancelled:
        assert [x.hex() for x in scalar_product(gen_map, words[i]).mat] == [x.hex() for x in rows[i]]
        # a matrix given as input still needs a positive determinant
        with pytest.raises(ValueError):
            PlaneIsometry.from_matrix(*raw[i])


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


@pytest.mark.parametrize("L", [4.0, 3.7])
def test_images_of_i_at_depth_match_the_exact_products(L):
    # the float image of i is off by a few eps cosh d(i, g i) (the division
    # behind its imaginary part cancels ad against bc), 8 eps cosh d at most
    # here, for every sampled word of length up to 10 within
    # PLANE_RADIUS_LIMIT; the words whose det cancels lie beyond it
    desc = schottky_pair(L)
    alph = letters(2)
    gen_map = dict(zip(alph, [g for h in desc.generators for g in (h, h.inverse())]))
    eps = np.finfo(float).eps
    rng = random.Random(4)
    levels = _word_levels(gen_map, alph)
    worst, beyond = 0.0, 0
    for k in range(1, 11):
        words, rows = next(levels)
        a, b, c, d = rows.T
        pick = rng.sample(range(len(words)), min(150, len(words)))
        pick += np.flatnonzero(a * d - b * c <= 0).tolist()[:20]
        for i, z in zip(pick, _images_of_i(rows[pick])):
            exact = exact_image_of_i(gen_map, words[i])
            disp = plane_distance(1j, exact)
            if disp > PLANE_RADIUS_LIMIT:
                beyond += 1
                continue
            assert a[i] * d[i] - b[i] * c[i] > 0
            worst = max(worst, plane_distance(z, exact) / (eps * math.cosh(disp)))
    assert worst <= 8.0 and beyond


def scalar_product(gen_map, word):
    g = IDENTITY_PLANE
    for c in word:
        g = compose(g, gen_map[c])
    return g


@pytest.mark.parametrize("L", [3.0, 4.0, 4.5, 4.0078125, 5.0, 6.0])
def test_certificate_survey_matches_the_scalar_words(L):
    desc = schottky_pair(L)
    gen_map = dict(zip(letters(2), [g for h in desc.generators for g in (h, h.inverse())]))
    want = {
        w: plane_distance(1j, apply_isometry(PLANE, scalar_product(gen_map, w), PLANE.basepoint).z).hex()
        for w in reduced_words_upto(2, WORD_HORIZON)
    }
    got = certify_ping_pong(desc).displacement_table
    assert {w: d.hex() for w, d in got.items()} == want


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
    assert cert.per_letter_gain > 0.0


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
        exact_rejects = isinstance(exact, PingPongFailure)
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
