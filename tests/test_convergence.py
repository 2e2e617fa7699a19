import hashlib
import math
import os
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hypcrit import cli, convergence
from hypcrit.arrays import _TreePaths, pairwise_distances
from hypcrit.convergence import (
    EPS_LADDER,
    ApproximationWitness,
    ContinuityConfig,
    SearchFailure,
    WitnessDefects,
    run_continuity_experiment,
    search_witness,
    snapshot,
    verify_witness,
)
from hypcrit.errors import InsufficientDataError, KindMismatchError, MalformedWitnessError
from hypcrit.isometries import apply_isometry, certify_ping_pong, schottky_pair
from hypcrit.orbits import enumerate_orbit_ball, schottky_action, tree_action
from hypcrit.space import TreePoint, _GridPoint, _path_distance, _tree_separation, distance
from hypcrit.words import compose_words, letters, reduced_words_upto, word_levels


def tree_depth(space, p):
    """Distance from the root vertex (empty word), exact."""
    return len(p.word) * space.edge_length + p.offset


@pytest.fixture(scope="module")
def f2():
    return tree_action()


@pytest.fixture(scope="module")
def f2_ball(f2):
    return enumerate_orbit_ball(f2, 4)


@pytest.fixture(scope="module")
def snap(f2, f2_ball):
    return snapshot(f2, f2_ball, 0.5)


def identity_witness(A, eps):
    return ApproximationWitness(
        tuple(range(len(A.points))),
        tuple(range(len(A.elements))),
        tuple(range(len(A.elements))),
        eps,
    )


# ---------------------------------------------------------------------------
# snapshots


def test_snapshot_elements_are_strictly_inside(snap):
    # radius 2: identity and the four letters; length-2 words sit exactly
    # on the boundary shell and are excluded
    assert sorted(el.word for el in snap.elements) == ["", "A", "B", "a", "b"]
    assert all(el.displacement < 1.0 / snap.epsilon for el in snap.elements)


def test_snapshot_net_covers_the_ball(snap):
    assert snap.covering_radius == pytest.approx(1.0 / 32.0)
    assert snap.points[snap.base_index].word == ""
    da = pairwise_distances(snap.space, snap.points)[snap.base_index]
    assert float(np.max(da)) <= 1.0 / snap.epsilon + 1e-12


def action_table(snap):
    """The rows of every element of `snap`, stacked."""
    return np.stack([snap.row(gi) for gi in range(len(snap.elements))])


def test_snapshot_action_table_is_exact(snap, f2):
    table = action_table(snap)
    for gi, el in enumerate(snap.elements[:3]):
        iso = f2.isometry(el.word)
        for pi in range(0, len(snap.points), 37):
            j = table[gi, pi]
            if j < 0:
                continue
            assert apply_isometry(f2.space, iso, snap.points[pi]) == snap.points[j]


def test_plane_rows_are_the_composed_word_table():
    desc = schottky_pair(4.0)
    act = schottky_action(desc, certify_ping_pong(desc))
    snap = snapshot(act, enumerate_orbit_ball(act, 23.0), 0.08)
    words = snap.point_words
    index = {w: i for i, w in enumerate(words)}
    table = action_table(snap)
    assert table.dtype == np.int32
    assert table.tolist() == [
        [index.get(compose_words(el.word, w), -1) for w in words] for el in snap.elements
    ]
    assert (table >= 0).any() and (table < 0).any()
    # a found image is the point the element moves there
    for gi, pi in zip(*np.nonzero(table >= 0)):
        img = apply_isometry(act.space, act.isometry(snap.elements[gi].word), snap.points[pi])
        assert float(distance(act.space, img, snap.points[table[gi, pi]])) < 1e-6


def test_snapshot_allocates_no_element_by_point_table(f2, rescale_limit):
    # the int32 table of 53 elements x 3841 points alone took 814,292
    # bytes, and building it 4.09 MB; the snapshot now peaks at about 324 kB
    tracemalloc.start()
    try:
        snap = snapshot(f2, rescale_limit, 0.25, resolution=Fraction(1, 24))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(snap.elements), len(snap.points)) == (53, 3841)
    assert peak < 500_000


def grid_net(space, radius, res):
    """Every offset-grid point of the closed tree ball, by brute force."""
    pts = []
    for w in reduced_words_upto(space.rank, int(radius / space.edge_length)):
        pts.append(TreePoint(w))
        for d in letters(space.rank):
            if w and d == w[-1].swapcase():
                continue
            off = res
            while off < space.edge_length and len(w) * space.edge_length + off <= radius:
                pts.append(TreePoint(w, off, d))
                off += res
    return pts


@pytest.mark.parametrize("ell", [Fraction(1), Fraction(9, 8)], ids=["L=1", "L=9/8"])
def test_snapshot_table_matches_apply_isometry(ell):
    act = tree_action(edge_length=ell)
    eps, R = 0.4, Fraction(5, 2)
    ball = enumerate_orbit_ball(act, 3 * ell)
    res = ell / 24
    snap = snapshot(act, ball, eps, resolution=res)
    radius = res * int(R / res)
    assert set(snap.points) == set(grid_net(act.space, radius, res))
    assert len(snap.points) == len(set(snap.points))
    assert snap.points[snap.base_index] == act.basepoint
    assert [el.word for el in snap.elements] == [
        e.word for e in ball.entries if float(e.displacement) < float(R) - 1e-12
    ]
    index = {p: i for i, p in enumerate(snap.points)}
    table = action_table(snap)
    assert table.shape == (len(snap.elements), len(snap.points))
    expected = np.full(table.shape, -1)
    for gi, el in enumerate(snap.elements):
        iso = act.isometry(el.word)
        for pi, p in enumerate(snap.points):
            q = apply_isometry(act.space, iso, p)
            if tree_depth(act.space, q) <= radius:
                expected[gi, pi] = index[q]
    assert (expected >= 0).any() and (expected < 0).any()
    assert np.array_equal(table, expected)


@pytest.mark.parametrize(
    "ell", [Fraction(1), Fraction(9, 8), Fraction(3, 2), Fraction(257, 256)],
    ids=["L=1", "L=9/8", "L=3/2", "L=257/256"],
)
def test_tree_snapshot_elements_are_the_ball_levels(ell):
    # a tree snapshot numbers its own words; its elements are the ball's
    # (word, displacement) pairs displaced by less than 1/eps, in level
    # order, on every rung a continuity member's ball reaches
    act = tree_action(edge_length=ell)
    ball = enumerate_orbit_ball(act, 10.0 * float(ell))
    rungs = [eps for eps in EPS_LADDER if float(ball.radius) >= 1.0 / eps - 1e-12]
    assert rungs == list(EPS_LADDER)
    for eps in rungs:
        R = 1.0 / eps
        snap = snapshot(act, ball, eps, resolution=ell / 24)
        from_levels = [
            (w, float(k * ell))
            for k, level in zip(range(len(ball.sizes)), word_levels(act.rank))
            for w in level
            if float(k * ell) < R - 1e-12
        ]
        assert [(el.word, el.displacement) for el in snap.elements] == from_levels


def test_snapshot_refuses_coarse_resolution(f2, f2_ball):
    with pytest.raises(ValueError):
        snapshot(f2, f2_ball, 0.5, resolution=Fraction(1, 4))
    # a plane net is its orbit sample: any resolution is refused
    desc = schottky_pair(4.0)
    plane = schottky_action(desc, certify_ping_pong(desc))
    with pytest.raises(ValueError):
        snapshot(plane, enumerate_orbit_ball(plane, 2.0), 0.5, resolution=0.125)


def test_snapshot_refuses_shallow_ball(f2):
    with pytest.raises(InsufficientDataError):
        snapshot(f2, enumerate_orbit_ball(f2, 1), 0.25)
    # the message shows a gap below display precision
    with pytest.raises(InsufficientDataError, match=r"radius 6\.0 below .* 6\.0000000005"):
        snapshot(f2, enumerate_orbit_ball(f2, 6), 1 / (6 + 5e-10))


def test_rung_just_past_the_ball_is_skipped():
    # 1/eps = ball radius + 5e-10: the experiment and the snapshot must
    # agree that the ball is too shallow, so the rung is skipped, not fatal
    cfg = ContinuityConfig(ball_T=6.0, window=(2.0, 6.0), eps_ladder=(1.0, 0.5, 1 / (6 + 5e-10)),
                           param_scale=float)
    rep = run_continuity_experiment(lambda ell: tree_action(edge_length=ell), [Fraction(1)],
                                    Fraction(1), cfg)
    assert [row.eps for row in rep.rows] == [0.5]


# ---------------------------------------------------------------------------
# witness verification


def test_identity_witness_is_valid_at_twice_covering_radius(snap):
    eps = 2.0 * snap.covering_radius
    valid, defects = verify_witness(snap, snap, identity_witness(snap, eps))
    assert valid
    assert defects.basepoint == 0.0
    assert defects.distortion == 0.0
    assert defects.phi_equivariance == 0.0
    assert defects.psi_equivariance == 0.0
    assert defects.surjectivity == pytest.approx(snap.covering_radius)


def test_malformed_witnesses_are_rejected_loudly(snap):
    w = identity_witness(snap, 1.0)
    with pytest.raises(MalformedWitnessError):
        verify_witness(snap, snap, ApproximationWitness(w.f[:-1], w.phi, w.psi, 1.0))
    bad_phi = (len(snap.elements) + 5,) + w.phi[1:]
    with pytest.raises(MalformedWitnessError):
        verify_witness(snap, snap, ApproximationWitness(w.f, bad_phi, w.psi, 1.0))


def test_malformed_tables_are_named_by_their_first_bad_entry(snap):
    # the range check over the table's array lets the entry loop name the
    # first bad entry, in the message the loop alone wrote
    w = identity_witness(snap, 1.0)
    f, n = list(w.f), len(snap.points)
    cases = [
        ("f", f[:-1], "f table has %d entries, expected %d" % (n - 1, n)),
        ("f", f[:3] + [None] + f[4:], "f table entry 3 is invalid: None"),
        ("f", f[:5] + [-1] + f[6:-1] + [n], "f table entry 5 is invalid: -1"),
        ("f", f[:-1] + [n], "f table entry %d is invalid: %d" % (n - 1, n)),
        ("f", f[:2] + [2**70] + f[3:], "f table entry 2 is invalid: %d" % 2**70),
        ("f", f[:1] + [-0.5, 1.5, n + 0.5] + f[4:], "f table entry 3 is invalid: %r" % (n + 0.5)),
        ("f", [(v, v) for v in f], "f table entry 0 is invalid: (%d, %d)" % (f[0], f[0])),
        ("phi", (None,) + w.phi[1:], "phi table entry 0 is invalid: None"),
        ("psi", w.psi + (0,), "psi table has %d entries, expected %d" % (len(w.psi) + 1, len(w.psi))),
    ]
    for name, table, message in cases:
        bad = w._replace(**{name: tuple(table)})
        with pytest.raises(MalformedWitnessError, match="^%s$" % re.escape(message)):
            verify_witness(snap, snap, bad)
    # an integer array and integral floats in range are read as int(v) reads them
    want = verify_witness(snap, snap, w)
    assert verify_witness(snap, snap, w._replace(f=np.asarray(f))) == want
    assert verify_witness(snap, snap, w._replace(f=tuple(float(v) for v in f))) == want


def test_generator_swap_has_large_equivariance_defect(snap, f2, f2_ball):
    words = [el.word for el in snap.elements]
    swap = {"a": "b", "b": "a", "A": "B", "B": "A"}
    phi = tuple(words.index(swap.get(w, w)) for w in words)
    w = identity_witness(snap, 0.5)
    valid, defects = verify_witness(snap, snap, ApproximationWitness(w.f, phi, w.psi, 0.5))
    assert not valid
    systole = 1.0
    assert defects.phi_equivariance >= systole - 0.5


def test_search_witness_between_rescaled_trees(f2, f2_ball):
    lim = snapshot(f2, f2_ball, 1.0, resolution=Fraction(1, 16))
    ell = Fraction(65, 64)
    near = tree_action(edge_length=ell)
    nball = enumerate_orbit_ball(near, 4 * ell)
    nsnap = snapshot(near, nball, 1.0, resolution=ell / 16)
    got = search_witness(nsnap, lim, 1.0)
    assert isinstance(got, ApproximationWitness)
    assert got.defects.worst() < 1.0
    assert got.defects.distortion < 0.1


def test_wordwise_points_match_offsets_across_grids(f2, f2_ball):
    # 24 steps per edge against 16: A's step s is B's step 2s/3, so step 3
    # lands on B's step 2 and step 1, with no counterpart, on its vertex
    A = snapshot(f2, f2_ball, 0.5, resolution=Fraction(1, 24))
    B = snapshot(f2, f2_ball, 0.5, resolution=Fraction(1, 16))
    f = A.wordwise_points(B)
    for p, s, j in zip(A.points, A.steps.tolist(), f):
        if p.word != "a":
            continue
        q = B.points[j]
        if s % 3:
            assert q == TreePoint("a")
        else:
            assert (q.word, q.offset, q.direction) == (p.word, p.offset, p.direction)


def test_wordwise_points_fall_back_outside_the_alphabet():
    # a family may vary `valence`: against F_2, the F_3 points on a word or
    # an edge with the letter c or C have no counterpart and fall to the
    # vertex of the longest prefix that is a word of F_2
    act3, act2 = tree_action(valence=6), tree_action(valence=4)
    A = snapshot(act3, enumerate_orbit_ball(act3, 2), 1.0)
    B = snapshot(act2, enumerate_orbit_ball(act2, 2), 1.0)
    index = {q: j for j, q in enumerate(B.points)}
    fallbacks = 0
    for p, j in zip(A.points, A.wordwise_points(B)):
        w = p.word
        while set(w) - set("aAbB"):
            w = w[:-1]
        assert B.points[j] == (p if p in index else TreePoint(w))
        fallbacks += p not in index
    assert any(p.direction == "C" for p in A.points) and fallbacks


def test_search_witness_reports_failures(f2, f2_ball):
    lim = snapshot(f2, f2_ball, 1.0)
    far = tree_action(edge_length=Fraction(3))
    fball = enumerate_orbit_ball(far, 12)
    fsnap = snapshot(far, fball, 1.0, resolution=Fraction(3, 16))
    got = search_witness(fsnap, lim, 0.1)
    assert isinstance(got, SearchFailure)
    assert got.defects.worst() >= 0.1


def test_search_witness_refuses_mixed_model_kinds(snap):
    desc = schottky_pair(4.0)
    plane = schottky_action(desc, certify_ping_pong(desc))
    psnap = snapshot(plane, enumerate_orbit_ball(plane, 4.0), 0.5)
    with pytest.raises(KindMismatchError):
        search_witness(snap, psnap, 0.5)
    with pytest.raises(KindMismatchError):
        search_witness(psnap, snap, 0.5)


def test_validity_is_monotone_in_epsilon(snap):
    rng = random.Random(11)
    n_pts, n_els = len(snap.points), len(snap.elements)
    grid = [0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
    for _ in range(20):
        f = tuple(rng.randrange(n_pts) for _ in range(n_pts))
        phi = tuple(rng.randrange(n_els) for _ in range(n_els))
        psi = tuple(rng.randrange(n_els) for _ in range(n_els))
        verdicts = [
            verify_witness(snap, snap, ApproximationWitness(f, phi, psi, e))[0]
            for e in grid
        ]
        # once valid at some eps, valid at every larger eps
        assert verdicts == sorted(verdicts)


# ---------------------------------------------------------------------------
# verification against the dense reference


def dense_equivariance(A, B, f, DB, mapping, forward, off_net):
    """Equivariance defect from B's dense table, with a scalar isometry and
    distance for every image that leaves B's net (counted in off_net)."""
    worst = 0.0
    for gi in range(len(A.elements) if forward else len(B.elements)):
        ai, bi = (gi, mapping[gi]) if forward else (mapping[gi], gi)
        row_a = A.row(ai)
        xs = np.nonzero(row_a >= 0)[0]
        lhs = f[row_a[xs]]
        rhs = B.row(bi)[f[xs]]
        inside = rhs >= 0
        if inside.any():
            worst = max(worst, float(DB[lhs[inside], rhs[inside]].max()))
        iso = B.action.isometry(B.elements[bi].word)
        for k in np.nonzero(~inside)[0]:
            img = apply_isometry(B.space, iso, B.points[f[xs[k]]])
            worst = max(worst, float(distance(B.space, B.points[lhs[k]], img)))
            off_net[0] += 1
    return worst


def dense_verify(A, B, w, off_net):
    """`verify_witness` on dense n x n float tables."""
    f = np.asarray(w.f, dtype=np.int64)
    DA = pairwise_distances(A.space, A.points)
    DB = pairwise_distances(B.space, B.points)
    defects = WitnessDefects(
        float(DB[f[A.base_index], B.base_index]),
        float(np.abs(DB[np.ix_(f, f)] - DA).max()),
        float(DB[f, :].min(axis=0).max()) + B.covering_radius,
        dense_equivariance(A, B, f, DB, w.phi, True, off_net),
        dense_equivariance(A, B, f, DB, w.psi, False, off_net),
        A.covering_radius + B.covering_radius,
    )
    return defects.worst() < float(w.epsilon), defects


def assert_matches_dense(A, B, witnesses):
    """verify_witness equals the dense reference bitwise; returns how many
    images left B's net."""
    off_net = [0]
    for w in witnesses:
        assert verify_witness(A, B, w) == dense_verify(A, B, w, off_net)
    return off_net[0]


def test_verify_matches_dense_reference_on_one_net(snap):
    rng = random.Random(5)
    n_pts, n_els = len(snap.points), len(snap.elements)
    ident = identity_witness(snap, 0.5)
    swap = {"a": "b", "b": "a", "A": "B", "B": "A"}
    words = [el.word for el in snap.elements]
    witnesses = [ident, ApproximationWitness(
        ident.f, tuple(words.index(swap.get(w, w)) for w in words), ident.psi, 0.5
    )]
    for _ in range(20):
        witnesses.append(ApproximationWitness(
            tuple(rng.randrange(n_pts) for _ in range(n_pts)),
            tuple(rng.randrange(n_els) for _ in range(n_els)),
            tuple(rng.randrange(n_els) for _ in range(n_els)),
            rng.choice([0.5, 2.0, 8.0]),
        ))
    assert assert_matches_dense(snap, snap, witnesses) > 0


@pytest.fixture(scope="module")
def rescale_limit(f2):
    return enumerate_orbit_ball(f2, 4)


@pytest.mark.parametrize(
    "ell, eps, leaves_net",
    [
        (Fraction(3, 2), 1.0, False),
        (Fraction(3, 2), 0.25, True),
        (Fraction(9, 8), 1.0, False),
        (Fraction(9, 8), 0.25, False),
    ],
)
def test_wordwise_witnesses_match_dense_reference(
    ell, eps, leaves_net, f2, rescale_limit, monkeypatch
):
    member = tree_action(edge_length=ell)
    A = snapshot(member, enumerate_orbit_ball(member, 4 * ell), eps, resolution=ell / 24)
    B = snapshot(f2, rescale_limit, eps, resolution=Fraction(1, 24))
    calls = []
    offnet = convergence._offnet_defect
    monkeypatch.setattr(convergence, "_offnet_defect", lambda *a: calls.append(1) or offnet(*a))
    off_net = assert_matches_dense(A, B, [convergence._wordwise_witness(A, B, eps)])
    assert (off_net > 0) == bool(calls) == leaves_net


def scalar_offnet_defect(snap, el_idx, xs, ys):
    """Reference for `_offnet_defect` on trees: one `compose_words` and one
    scalar `_path_distance` per point, on grid points."""
    g = snap.elements[el_idx].word
    m = int(snap.space.edge_length / snap.resolution)
    words, dirs, steps = snap.words, snap.directions, snap.steps
    worst, up = 0, 0
    for x, y in zip(xs.tolist(), ys.tolist()):
        s, d = int(steps[x]), dirs[x]
        u = compose_words(g, words[x])
        if s and u and u[-1] == d.swapcase():
            img, up = _GridPoint(u[:-1], m - s, u[-1]), up + 1
        else:
            img = _GridPoint(u, s, d)
        worst = max(worst, _path_distance(m, img, _GridPoint(words[y], int(steps[y]), dirs[y])))
    return float(Fraction(worst) * snap.resolution), up


def family_cases(name, check, monkeypatch, members=None):
    """Run the bundled family `name`, or its first `members` members,
    through run_continuity_experiment, configured as `converge` configures
    it, with check(A, B, eps) in place of search_witness on every (member,
    rung); returns check's results. The experiment sees no witness."""
    scenario = cli.load_scenario(name)
    scenario["converge"]["schedule"] = scenario["converge"]["schedule"][:members]
    make_member, schedule, limit, config = cli.read_family(scenario)
    seen = []
    monkeypatch.setattr(
        convergence, "search_witness", lambda A, B, eps: seen.append(check(A, B, eps))
    )
    run_continuity_experiment(make_member, schedule, limit, config)
    return seen


def wordwise_verdict(A, B, eps):
    return verify_witness(A, B, convergence._wordwise_witness(A, B, eps))


def test_offnet_defect_matches_the_scalar_loop_on_the_tree_family(monkeypatch):
    # every off-net image of the full tree_rescale_family's word-wise
    # witnesses, each verified in full
    offnet = convergence._offnet_defect
    seen = {"calls": 0, "points": 0}

    def both(snap, el_idx, xs, ys):
        got = offnet(snap, el_idx, xs, ys)
        assert got.hex() == scalar_offnet_defect(snap, el_idx, xs, ys)[0].hex()
        seen["calls"] += 1
        seen["points"] += len(xs)
        return got

    monkeypatch.setattr(convergence, "_offnet_defect", both)
    assert len(family_cases("tree_rescale_family", wordwise_verdict, monkeypatch)) == 80
    assert seen == {"calls": 220, "points": 36928}


@pytest.mark.parametrize("name, cases", [("tree_rescale_family", 80), ("schottky_family", 49)])
def test_search_decides_as_full_verification(name, cases, monkeypatch):
    # search_witness stops at the first defect >= eps; its verdict is the
    # full verification's, a valid witness carries the full defects
    # bitwise, and a failure's defects are the full ones up to the
    # refuting defect, which is >= eps and <= its full value, NaN after it
    judged = convergence._JUDGED

    def both(A, B, eps):
        valid, full = wordwise_verdict(A, B, eps)
        got = search_witness(A, B, eps)
        assert isinstance(got, ApproximationWitness) == valid
        want = [getattr(full, k).hex() for k in judged]
        have = [getattr(got.defects, k).hex() for k in judged]
        if valid:
            assert have == want and got.defects == full
            return True
        at = judged.index(got.reason)
        assert have[:at] == want[:at]
        assert eps <= getattr(got.defects, got.reason) <= getattr(full, got.reason)
        assert all(math.isnan(getattr(got.defects, k)) for k in judged[at + 1:])
        return False

    verdicts = family_cases(name, both, monkeypatch)
    assert len(verdicts) == cases and any(verdicts) and not all(verdicts)


#: (members, cases, sha256) of the float.hex of every defect of the full
#: verification of each word-wise witness, member by member and rung by
#: rung, on the benchmark's families (its first 3 tree members, every
#: Schottky member); recorded when the snapshots still kept whole
#: element x point tables
DEFECT_DIGESTS = {
    "tree_rescale_family":
        (3, 30, "2a99d567c93168447fbe0ed878d1fb22e81ca0177993594051696e13e8ac686e"),
    "schottky_family":
        (None, 49, "714197bef6fa8d80f426431718941ee6fd4dd4f228bc11ae0076952f03521d77"),
}


@pytest.mark.parametrize("name", sorted(DEFECT_DIGESTS))
def test_wordwise_defects_keep_their_bits(name, monkeypatch):
    members, cases, digest = DEFECT_DIGESTS[name]
    h = hashlib.sha256()

    def record(A, B, eps):
        defects = wordwise_verdict(A, B, eps)[1]
        h.update(" ".join(v.hex() for v in defects).encode() + b"\n")

    assert len(family_cases(name, record, monkeypatch, members)) == cases
    assert h.hexdigest() == digest


@pytest.mark.parametrize("ell", [Fraction(1), Fraction(3, 2)])
def test_offnet_defect_matches_the_scalar_loop_point_by_point(ell):
    # every element of length <= 2 on sampled net points, one point per
    # call, so images below the point's vertex and images on the edge above
    # the image vertex (g = "ab" on the point of edge "B" -> "BA") both occur
    act = tree_action(edge_length=ell)
    snap = snapshot(act, enumerate_orbit_ball(act, 3 * ell), 1 / (3 * ell), resolution=ell / 32)
    assert max(len(el.word) for el in snap.elements) == 2
    rng = random.Random(2)
    ups = 0
    for gi in range(len(snap.elements)):
        for x in rng.sample(range(len(snap.points)), 300):
            xs, ys = np.array([x]), np.array([rng.randrange(len(snap.points))])
            want, up = scalar_offnet_defect(snap, gi, xs, ys)
            assert convergence._offnet_defect(snap, gi, xs, ys).hex() == want.hex()
            ups += up
    assert ups


def test_plane_wordwise_witness_matches_dense_reference():
    def member(L):
        desc = schottky_pair(L)
        return schottky_action(desc, certify_ping_pong(desc))

    snaps = []
    for L in (4.5, 4.0):  # a schottky_family member and the limit, ball_T 23 L/4
        act = member(L)
        snaps.append(snapshot(act, enumerate_orbit_ball(act, 23.0 * L / 4.0), 0.08))
    w = convergence._wordwise_witness(*snaps, 0.08)
    assert assert_matches_dense(*snaps, [w]) > 0


def witness_nets(f2, rescale_limit):
    """The snapshots of L = 9/8 and of the limit at eps 0.25 (2653 x 3841
    points), as the continuity experiment builds them."""
    ell = Fraction(9, 8)
    member = tree_action(edge_length=ell)
    A = snapshot(member, enumerate_orbit_ball(member, 4 * ell), 0.25, resolution=ell / 24)
    B = snapshot(f2, rescale_limit, 0.25, resolution=Fraction(1, 24))
    assert (len(A.points), len(B.points)) == (2653, 3841)
    return A, B


def witness_search_peak(f2, rescale_limit, judge):
    """judge(A, B, 0.25) at L = 9/8 (2653 x 3841 points) and its
    tracemalloc peak, snapshot tables included: `search_witness` stops at
    the first distortion block, `wordwise_verdict` reads every block."""
    A, B = witness_nets(f2, rescale_limit)
    tracemalloc.start()
    try:
        got = judge(A, B, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    defects = got[1] if judge is wordwise_verdict else got.defects
    assert defects.distortion > 0.25  # a real verification ran: 9/8 fails at 0.25
    return peak


#: the judges whose peaks the gates below bound
PEAK_JUDGES = (search_witness, wordwise_verdict)


def test_search_witness_memory_grows_with_the_output(f2, rescale_limit):
    # dense float tables of these nets take 56 + 118 MB before any
    # temporary, n^2 int8 prefix tables 7 + 15 MB; the trie level ids take
    # O(width n) and the float blocks at most arrays._CELLS cells
    for judge in PEAK_JUDGES:
        assert witness_search_peak(f2, rescale_limit, judge) < 40e6


def test_search_witness_keeps_no_quadratic_table(f2, rescale_limit):
    # B's n^2 int8 prefix table alone would take 14.7 MB
    for judge in PEAK_JUDGES:
        assert witness_search_peak(f2, rescale_limit, judge) < 12e6


def test_search_witness_blocks_are_sized_by_cells(f2, rescale_limit, monkeypatch):
    # blocks of 64 rows held 64 x 3841 float cells per temporary, 8.5 MB
    # at the peak; a block of at most arrays._CELLS cells keeps it below 4 MB
    from hypcrit import arrays

    for judge in PEAK_JUDGES:
        assert witness_search_peak(f2, rescale_limit, judge) < 4e6
    shapes = record_sorted_rows(monkeypatch)
    wordwise_verdict(*witness_nets(f2, rescale_limit), 0.25)
    assert len(shapes) > 100 and max(r * c for r, c in shapes) <= arrays._CELLS


def record_sorted_rows(monkeypatch):
    """The shapes of the blocks `_TreePaths.sorted_rows` returns from now on."""
    shapes = []
    sorted_rows = _TreePaths.sorted_rows

    def record(self, rows, start=0):
        out = sorted_rows(self, rows, start)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(_TreePaths, "sorted_rows", record)
    return shapes


def test_search_stops_at_the_first_block_that_refutes(f2, rescale_limit, monkeypatch):
    # full verification reads more than 100 blocks of this pair of nets;
    # the first, of 17 rows, already holds a distortion above 0.25
    A, B = witness_nets(f2, rescale_limit)
    shapes = record_sorted_rows(monkeypatch)
    got = search_witness(A, B, 0.25)
    assert isinstance(got, SearchFailure) and got.reason == "distortion"
    assert len(shapes) <= 2 and math.isnan(got.defects.surjectivity)


def test_basepoint_defect_refutes_before_any_block(snap, monkeypatch):
    w = identity_witness(snap, 0.5)
    f = list(w.f)
    f[snap.base_index] = snap.net_vertex("a")  # one edge from the basepoint
    shapes = record_sorted_rows(monkeypatch)
    valid, got = verify_witness(snap, snap, ApproximationWitness(f, w.phi, w.psi, 0.5), stop=0.5)
    assert not valid and got.basepoint == 1.0 and shapes == []
    assert all(math.isnan(v) for v in (got.distortion, got.surjectivity))


# ---------------------------------------------------------------------------
# convergence experiments


def test_constant_family_passes_trivially():
    cfg = ContinuityConfig(
        ball_T=6.0,
        window=(2.0, 6.0),
        eps_ladder=(1.0, 0.5),
        param_scale=float,
    )
    rep = run_continuity_experiment(
        lambda ell: tree_action(edge_length=ell),
        [Fraction(1), Fraction(1)],
        Fraction(1),
        cfg,
    )
    assert rep.passed
    for row in rep.rows:
        assert row.eps == 0.5
        assert row.h_hat == rep.h_limit
        assert row.K < 2.0


def test_members_supply_their_own_target():
    # a tree member's target is bitwise the closed form the benchmark checks
    # its rows against; a plane member has none
    tree = cli.load_scenario("tree_rescale_family")
    make_member, schedule, limit, _ = cli.read_family(tree)
    valence = int(tree["action"]["valence"])
    for ell in schedule + [limit]:
        want = math.log(valence - 1) / float(ell)
        assert make_member(ell).closed_form_exponent.hex() == want.hex()
    make_member, schedule, limit, _ = cli.read_family(cli.load_scenario("schottky_family"))
    assert all(make_member(L).closed_form_exponent is None for L in schedule + [limit])


def test_fitted_C_is_reported_not_judged():
    # with no tolerance every drift counts toward C, and the fit on the
    # rows it would be tested on cannot fail them
    cfg = ContinuityConfig(ball_T=6.0, window=(2.0, 6.0), eps_ladder=(1.0, 0.5),
                           h_tolerance=0.0, param_scale=float)
    rep = run_continuity_experiment(lambda ell: tree_action(edge_length=ell),
                                    [Fraction(5, 4), Fraction(9, 8)], Fraction(1), cfg)
    assert rep.C > 0 and rep.passed


def test_certification_failure_aborts_the_experiment():
    from hypcrit.errors import CertificationError

    def member(L):
        desc = schottky_pair(float(L))
        cert = certify_ping_pong(desc)
        if not hasattr(cert, "systole_bound"):
            raise CertificationError("ping-pong certification failed")
        return schottky_action(desc, cert)

    cfg = ContinuityConfig(ball_T=6.0, eps_ladder=(0.5,), rank_window=(1, 4),
                           param_scale=lambda L: L / 4.0)
    with pytest.raises(CertificationError) as err:
        run_continuity_experiment(member, [0.5], 4.0, cfg)
    assert "0.5" in str(err.value)


def test_tree_net_distances_are_bitwise_symmetric():
    # verify_witness reads distortion off the columns j >= each block's
    # first row, which is exact only because of this symmetry
    ell = Fraction(3, 2)
    act = tree_action(edge_length=ell)
    snap = snapshot(act, enumerate_orbit_ball(act, 6), 0.25, resolution=ell / 24)
    n = len(snap.points)
    D = snap.metric.distances(np.arange(n))
    assert n > 900 and np.array_equal(D, D.T)
    i, j = np.triu_indices(n, 1)
    assert np.array_equal(snap.metric.pairs(i, j), snap.metric.pairs(j, i))
    assert np.array_equal(snap.metric.distances(np.arange(5, 9))[:, 7:], D[5:9, 7:])


def shallow_rank_distances(L, wl, off, lcp, i, j):
    """Tree net distances by the separation formula with a (word length,
    offset) shallowness rank: sep = shorter L + the shallower point's offset
    where the root paths agree past the shorter word, else lcp L."""
    shallow_rank = np.empty(len(wl), dtype=np.int64)
    shallow_rank[np.lexsort((off, wl))] = np.arange(len(wl))
    depth = wl * L + off
    shorter = np.minimum(wl[j], wl[i])
    sep = shorter * L
    sep += np.where(shallow_rank[j] < shallow_rank[i], off[j], off[i])
    np.copyto(sep, lcp * L, where=lcp <= shorter)
    d = depth[j] + depth[i]
    sep *= 2.0
    d -= sep
    return np.maximum(d, 0.0, out=d)


def trie_block_prefix_table(paths):
    """The (n, n) int8 common-prefix lengths among `paths`' points in
    sorted order, the quadratic reference of `lcp_rows`.

    Filled by trie blocks. For each level k = 1 .. width, the sorted rows
    whose adjacent common-prefix lengths are >= k form contiguous runs (the
    points below one trie node of depth k), and each run's diagonal block
    gains 1; sorted rows a < b share min(adjacent[a:b]) such levels. The
    diagonal is then set to the full width.
    """
    n = len(paths.rank)
    table = np.zeros((n, n), dtype=np.int8)
    for k in range(1, paths.width + 1):
        edges = np.flatnonzero(np.diff(np.concatenate(([0], paths.adjacent >= k, [0]))))
        for a, b in zip(edges[::2].tolist(), edges[1::2].tolist()):
            table[a : b + 1, a : b + 1] += 1
    np.fill_diagonal(table, paths.width)
    return table


def lcp_rows(paths, rows, start=0):
    """(len(rows), n - start) int8 common-prefix lengths of `paths`' points
    at sorted positions `rows` against the sorted positions from `start`
    on, as `_TreePaths.sorted_rows` finds them: the per-level compare of
    `lcp` on the columns within the rows' span, and outside it the min of
    a per-row and a per-column running minimum (`_TreePaths._spans`)."""
    rows, left, right, (up, back), (down, run) = paths._spans(rows, start)
    mid = paths.lcp(rows[:, None], slice(left, right))
    before, after = np.minimum(up[:, None], back), np.minimum(down[:, None], run)
    return np.concatenate((before, mid, after), axis=1)


@pytest.mark.parametrize(
    "valence, ell, eps, steps",
    [(4, Fraction(1), 0.25, 24), (4, Fraction(9, 8), 0.25, 24), (4, Fraction(3, 2), 0.25, 24),
     (4, Fraction(257, 256), 0.25, 24), (6, Fraction(1), 1 / 3, 12)],
    ids=["L=1", "L=9/8", "L=3/2", "L=257/256", "valence=6"],
)
def test_sorted_prefix_table_matches_the_shallow_rank_formula(valence, ell, eps, steps):
    # the level-id prefix lengths against the trie-block table, and the
    # min-form distances against the shallow-rank formula, bit for bit, on
    # every row of a net, read by contiguous, unsorted and repeated rows
    act = tree_action(valence=valence, edge_length=ell)
    snap = snapshot(act, enumerate_orbit_ball(act, ell / eps), eps, resolution=ell / steps)
    n = len(snap.points)
    L = float(ell)
    wl = np.array([len(w) for w in snap.words])
    off = np.array([float(s * snap.resolution) for s in snap.steps.tolist()])
    paths = _TreePaths(ell, snap.words, snap.directions, off)
    metric = snap.metric
    table = trie_block_prefix_table(paths)
    assert n > 900
    assert np.array_equal(metric.order, paths.order) and np.array_equal(metric.rank, paths.rank)
    assert np.array_equal(metric.order[metric.rank], np.arange(n))
    # the adjacent prefix lengths against string prefixes of the root paths
    path = [w + (d or "") for w, d in zip(snap.words, snap.directions)]
    for a, b in zip(paths.order[:-1].tolist(), paths.order[1:].tolist()):
        common = len(os.path.commonprefix([path[a], path[b]]))
        assert paths.adjacent[paths.rank[a]] == (paths.width if path[a] == path[b] else common)
    rng = np.random.default_rng(0)
    for start in range(0, n, 512):
        rows = np.arange(start, min(start + 512, n))
        lcp = table[paths.rank[rows]][:, paths.rank]
        ref = shallow_rank_distances(L, wl, off, lcp, rows[:, None], slice(None))
        assert np.array_equal(metric.distances(rows), ref)
        assert np.array_equal(metric.distances(rows)[:, start + 7 :], ref[:, start + 7 :])
        j = rng.integers(0, n, len(rows))
        k = np.arange(len(rows))
        assert np.array_equal(metric.pairs(rows, j), ref[k, j])
        assert np.array_equal(metric.pairs(rows, rows), ref[k, rows])
        a = metric.rank[rows]
        assert np.array_equal(metric.sorted_rows(a), ref[:, metric.order])
        assert np.array_equal(lcp_rows(paths, a), table[a])
        assert np.array_equal(paths.lcp(a[:, None], slice(None)), table[a])
        # contiguous sorted rows from their first position on, as
        # verify_witness reads A
        block = slice(start, min(start + 64, n))
        assert np.array_equal(lcp_rows(paths, block, start), table[block, start:])
        assert np.array_equal(lcp_rows(paths, block, start + 100), table[block, start + 100 :])
    # unsorted rows with repeats, as fs = rank[f[order]] gives for a
    # non-injective f: a wide random set, and near runs as a word-wise map
    # between nets makes
    near = np.clip(np.arange(0, n, 2) + rng.integers(-40, 40, (n + 1) // 2), 0, n - 1)
    for rows in (rng.integers(0, n, 300), np.repeat(rng.integers(0, n, 40), 3), near):
        for start in range(0, len(rows), 64):
            r = rows[start : start + 64]
            assert np.array_equal(lcp_rows(paths, r), table[r])
            lcp = table[r][:, paths.rank]
            ref = shallow_rank_distances(L, wl, off, lcp, metric.order[r][:, None], slice(None))
            assert np.array_equal(metric.sorted_rows(r), ref[:, metric.order])
            assert np.array_equal(metric.sorted_rows(r, 5), ref[:, metric.order[5:]])


def random_tree_net(rng, ell, n, steps=24):
    """n random tree points with float offsets on an edge/steps grid, their
    words grown from the prefixes of earlier ones so that root paths share
    long prefixes, with some points repeated."""
    alph = letters(2)
    words, dirs, offs = [""], [None], [0.0]
    while len(words) < n:
        if words and rng.random() < 0.1:
            i = rng.randrange(len(words))  # a repeated point
            words.append(words[i]), dirs.append(dirs[i]), offs.append(offs[i])
            continue
        w = rng.choice(words)[: rng.randrange(7)]
        for _ in range(rng.randrange(4)):
            w += rng.choice([c for c in alph if not w or c != w[-1].swapcase()])
        s = rng.randrange(steps)
        d = rng.choice([c for c in alph if not w or c != w[-1].swapcase()]) if s else None
        words.append(w), dirs.append(d), offs.append(float(s * ell / steps))
    return words, dirs, offs


@pytest.mark.parametrize("ell", [Fraction(1), Fraction(9, 8), Fraction(257, 256), Fraction(1, 3)],
                         ids=["L=1", "L=9/8", "L=257/256", "L=1/3"])
def test_tree_path_distances_match_the_scalar_kernel(ell):
    # sorted_rows, pairs and distances bit for bit against the scalar
    # separation of `space._tree_separation` in the min form's float order,
    # (depth_i + depth_j) - 2 sep, and, on the exact integer grid, against
    # `space._path_distance`; the row sets lie far apart in sorted order, so
    # most columns take the outer-minimum path of `sorted_rows`
    rng = random.Random(7)
    L = float(ell)
    words, dirs, offs = random_tree_net(rng, ell, 300)
    n = len(words)
    paths = _TreePaths(ell, words, dirs, offs)
    fpts = [_GridPoint(w, o, d) for w, d, o in zip(words, dirs, offs)]
    gpts = [_GridPoint(w, round(o * 24 / L), d) for w, d, o in zip(words, dirs, offs)]
    depth = [len(w) * L + o for w, o in zip(words, offs)]

    def ref(i, j):
        return (depth[i] + depth[j]) - 2 * _tree_separation(L, fpts[i], fpts[j])

    table = np.array([[ref(i, j) for j in range(n)] for i in range(n)])
    exact = np.array([[_path_distance(24, gpts[i], gpts[j]) for j in range(n)] for i in range(n)])
    assert np.allclose(table, exact * L / 24, rtol=0, atol=1e-12)
    order = paths.order
    blocks = [np.array([0, n // 2, n - 1]), np.array([n - 1, 3, 3, n // 3]),
              np.arange(0, n, 37), np.array([n // 2]), np.array(rng.sample(range(n), 40))]
    for rows in blocks:
        for start in (0, 1, n // 4, n // 2 + 1, n - 1):
            got = paths.sorted_rows(rows, start)
            assert got.tobytes() == table[order[rows]][:, order[start:]].tobytes()
        assert paths.distances(order[rows]).tobytes() == table[order[rows]].tobytes()
    i = np.array([rng.randrange(n) for _ in range(2000)])
    j = np.array([rng.randrange(n) for _ in range(2000)])
    assert paths.pairs(i, j).tobytes() == table[i, j].tobytes()


def count_rows(monkeypatch, cls):
    """A Counter of (snapshot, element) row computations of `cls` from now
    on."""
    from collections import Counter

    computed = Counter()
    row = cls.row

    def counted(self, gi):
        computed[id(self), gi] += 1
        return row(self, gi)

    monkeypatch.setattr(cls, "row", counted)
    return computed


def test_each_row_is_computed_once_per_pass(monkeypatch, f2, rescale_limit):
    # phi reads A's rows and B's rows at phi's images, psi A's at psi's
    # images and B's: word-wise, both images of most words are the word
    # itself, so each row was computed twice or more in a pass
    ell = Fraction(9, 8)
    member = tree_action(edge_length=ell)
    tree = (snapshot(member, enumerate_orbit_ball(member, 2 * ell), 0.5, resolution=ell / 24),
            snapshot(f2, rescale_limit, 0.5, resolution=Fraction(1, 24)))
    plane = []
    for L in (4.5, 4.0):
        desc = schottky_pair(L)
        act = schottky_action(desc, certify_ping_pong(desc))
        plane.append(snapshot(act, enumerate_orbit_ball(act, 23.0 * L / 4.0), 0.08))
    for (A, B), cls in ((tree, convergence._TreeSnapshot), (plane, convergence._PlaneSnapshot)):
        computed = count_rows(monkeypatch, cls)
        w = convergence._wordwise_witness(A, B, A.epsilon)
        for _ in range(2):
            computed.clear()
            verify_witness(A, B, w)
            assert len(computed) == len(A.elements) + len(B.elements)
            assert max(computed.values()) == 1


def test_full_tree_family_reads_few_blocks_and_rows(monkeypatch):
    # the eight-member tree_rescale_family, which the benchmark cuts to
    # three: with 2^14-cell blocks against the larger net and rows computed
    # on every read it took 6552 distortion blocks and 3580 row
    # computations, and ran 85% slower than with an action table and
    # 2^16-cell blocks; a block now spans the columns left of A's upper
    # triangle and the rows are kept for the pass
    from collections import Counter

    blocks, witness_defects = Counter(), convergence._witness_defects

    def counted(A, B, f, w):
        for name, value in witness_defects(A, B, f, w):
            blocks[name] += 1
            yield name, value

    monkeypatch.setattr(convergence, "_witness_defects", counted)
    computed = count_rows(monkeypatch, convergence._TreeSnapshot)
    rep = run_continuity_experiment(*cli.read_family(cli.load_scenario("tree_rescale_family")))
    assert [r.eps for r in rep.rows] == [1.0, 0.75, 0.5, 0.375, 0.25, 0.25, 0.25, 0.25]
    assert blocks["basepoint"] == 80 and blocks["psi_equivariance"] == 59
    assert blocks["distortion"] <= 3232
    assert sum(computed.values()) <= 1790
