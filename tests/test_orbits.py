import bisect
import math
import random
import time
from fractions import Fraction

import pytest

from hypcrit.errors import CertificationError, InsufficientDataError, NumericalLimitError
from hypcrit.isometries import (
    IDENTITY_PLANE,
    PlaneIsometry,
    SchottkyCertificate,
    TreeIsometry,
    apply_isometry,
    certify_ping_pong,
    compose,
    schottky_pair,
)
from hypcrit.orbits import (
    PLANE_RADIUS_LIMIT,
    OrbitEntry,
    PlaneAction,
    TreeBall,
    _count_by_shell,
    _MergeHash,
    check_generating,
    check_word_metric_comparison,
    enumerate_orbit_ball,
    measure_codiameter,
    measure_systole,
    schottky_action,
    tree_action,
)
from hypcrit.space import TreePoint, plane_distance
from hypcrit.words import word_key, word_levels
from word_oracle import brute_force_reduced_words_upto


@pytest.fixture(scope="module")
def f2():
    return tree_action()


@pytest.fixture(scope="module")
def f2_ball6(f2):
    return enumerate_orbit_ball(f2, 6)


@pytest.fixture(scope="module")
def schottky():
    desc = schottky_pair(4.0)
    return schottky_action(desc, certify_ping_pong(desc))


@pytest.fixture(scope="module")
def schottky_ball(schottky):
    return enumerate_orbit_ball(schottky, 14.0)


def test_tree_ball_matches_word_oracle(f2, f2_ball6):
    oracle = set(brute_force_reduced_words_upto(2, 6))
    assert set(f2_ball6.words()) == oracle
    assert f2_ball6.count == 2 * 3**6 - 1
    # the level sizes and the levels of `word_levels`, level by level in
    # canonical order, at ranks 2 and 3
    for ball, rank, depth in ((f2_ball6, 2, 6), (enumerate_orbit_ball(tree_action(6), 4), 3, 4)):
        oracle = brute_force_reduced_words_upto(rank, depth)
        assert ball.rank == rank and len(ball.sizes) == depth + 1
        for k, level in zip(range(depth + 1), word_levels(rank)):
            assert level == [w for w in oracle if len(w) == k]
            assert ball.sizes[k] == len(level)
        assert ball.words() == oracle and ball.count == len(oracle)


def test_actions_refuse_their_inputs_when_built(f2, schottky):
    # the refusals a ball used to make on its first build: a plane action
    # without a ping-pong certificate, a tree of nonpositive edge length
    with pytest.raises(CertificationError, match="no ping-pong certificate"):
        PlaneAction(schottky.gen_map, math.log(3.0), 3.0, None)
    for ell in (0, -1, Fraction(-1, 2)):
        with pytest.raises(ValueError, match="edge length must be positive"):
            tree_action(edge_length=ell)
    # a tree action's words are its isometries: it holds no generator map
    assert not hasattr(f2, "gen_map") and not hasattr(f2, "certificate")


def test_tree_orbit_points_are_the_isometry_images(f2):
    for w in brute_force_reduced_words_upto(2, 3):
        want = apply_isometry(f2.space, TreeIsometry(w), f2.basepoint)
        assert f2.orbit_point(w) == want == TreePoint(w)


def test_tree_ball_counts_per_shell(f2_ball6):
    shells = dict((int(t), n) for t, n in f2_ball6.count_by_shell)
    for n in range(7):
        assert shells[n] == 2 * 3**n - 1


def test_tree_radius_snaps_to_the_edge_grid(f2):
    # 3.7 lies between levels 3 and 4: the ball is the ball at 3, its
    # radius the depth of its deepest level, with no flat closing shell
    ball, at3 = enumerate_orbit_ball(f2, 3.7), enumerate_orbit_ball(f2, 3)
    assert ball.radius == 3 and ball.sizes == at3.sizes == (1, 4, 12, 36)
    assert ball.count_by_shell == at3.count_by_shell == ((0.0, 1), (1.0, 5), (2.0, 17), (3.0, 53))


def test_ball_order_statistics_are_the_sorted_displacements(f2, schottky_ball):
    rescaled = tree_action(edge_length=Fraction(9, 8))
    for ball in (enumerate_orbit_ball(f2, 4), enumerate_orbit_ball(rescaled, 4.5), schottky_ball):
        disps = sorted(float(e.displacement) for e in ball.entries)
        assert [ball.displacement_at(n) for n in range(1, ball.count + 1)] == disps
        for t in (0.0, disps[1], disps[-1] / 2, disps[-1], disps[-1] + 1):
            assert ball.count_within(t) == sum(d <= t for d in disps)
        with pytest.raises(IndexError):
            ball.displacement_at(ball.count + 1)


def test_tree_displacements_are_word_lengths(f2_ball6):
    for e in f2_ball6.entries:
        assert e.displacement == len(e.word)


def test_element_cap_trips_before_a_level_is_built(monkeypatch, f2, schottky):
    from hypcrit import orbits
    from hypcrit.boundary import patterson_sullivan_atoms
    from hypcrit.convergence import snapshot
    from hypcrit.entropy import poincare_partial

    uncapped = enumerate_orbit_ball(f2, 5)
    want_sum, want_mu = poincare_partial(uncapped, 1.3), patterson_sullivan_atoms(f2, uncapped, 1.3)
    monkeypatch.setattr(orbits, "ELEMENT_CAP", 161)
    assert enumerate_orbit_ball(f2, 4).count == 161
    # a tree ball stores no word, so one past the cap is counted; each read
    # that lists its points refuses it before listing any level, and a tree
    # action is discrete, so the message names the ball's size, not a
    # diagnosis
    ball = enumerate_orbit_ball(f2, 5)
    assert ball.count == 485 and ball.count_samples[-1] == (5.0, 485)
    for read in (lambda b: b.entries, TreeBall.points, TreeBall.words,
                 lambda b: check_generating(f2, b, 1.0)):
        with pytest.raises(CertificationError, match=r"^a tree ball of depth 5 holds 485 points, "
                                                     r"past the element cap 161$"):
            read(ball)
    # the Poincare sum and the Patterson-Sullivan measure add one run per
    # level, so they answer on the capped ball, with the uncapped values
    assert poincare_partial(ball, 1.3) == want_sum
    mu = patterson_sullivan_atoms(f2, ball, 1.3)
    assert len(mu.atoms) == 485 and len(mu.boundary_atoms) == len(want_mu.boundary_atoms)
    assert (mu.boundary_levels, mu.boundary_total) == (want_mu.boundary_levels,
                                                       want_mu.boundary_total)
    # a snapshot of radius 4 numbers the words of length <= 5
    snapshot(f2, ball, 1 / 3.5)
    with pytest.raises(CertificationError, match="^a tree ball of depth 5 holds 485 points"):
        snapshot(f2, ball, 0.25)
    with pytest.raises(CertificationError, match="depth 7 holds 4373 points"):
        enumerate_orbit_ball(f2, 7).words()
    # the plane frontier keeps children outside the ball, so the cap must
    # bound the words each level builds, not only the entries it keeps
    monkeypatch.setattr(orbits, "ELEMENT_CAP", 1000)
    slow = schottky_action(schottky_pair(4.0), schottky.certificate._replace(per_letter_gain=0.5))
    with pytest.raises(CertificationError, match="^element cap hit; action looks non-discrete$"):
        enumerate_orbit_ball(slow, 4.0)


def test_tree_ball_past_the_cap_is_counted_not_listed(f2):
    # T = 16 holds 2 * 3^16 - 1 points, 43 times the cap: its counts are
    # read, and listing its entries is refused with its size; a count past
    # float64 is refused before its levels are built
    ball = f2.orbit_ball(16)
    assert ball.count == 2 * 3**16 - 1 and ball.count_within(10.5) == 2 * 3**10 - 1
    with pytest.raises(CertificationError, match=r"^a tree ball of depth 16 holds 86093441 points, "
                                                 r"past the element cap 2000000$"):
        ball.entries
    with pytest.raises(NumericalLimitError, match="past float64"):
        f2.orbit_ball(10**9)


def test_rescaled_tree_ball(f2_ball6):
    act = tree_action(edge_length=Fraction(3, 2))
    ball = enumerate_orbit_ball(act, Fraction(9, 2))
    assert ball.count == 2 * 3**3 - 1
    assert all(e.displacement == len(e.word) * Fraction(3, 2) for e in ball.entries)


def test_systole_measurement(f2, f2_ball6, schottky, schottky_ball):
    rep = measure_systole(f2, f2_ball6)
    assert rep.min_displacement == 1
    assert rep.attaining_word == "a"
    srep = measure_systole(schottky, schottky_ball)
    assert float(srep.min_displacement) == pytest.approx(4.0, abs=1e-9)


def test_codiameter_estimate_is_small_on_the_orbit(f2, f2_ball6):
    # the orbit itself is 0-dense in itself; half-edge points are 1/2-deep
    pts = [e.point for e in f2_ball6.entries[:40]]
    assert measure_codiameter(f2, f2_ball6, pts) == 0.0


def test_schottky_ball_is_free_group_like(schottky_ball):
    # words of length k displace roughly 4k; radius 14 holds lengths <= 3
    lengths = {}
    for e in schottky_ball.entries:
        lengths[len(e.word)] = lengths.get(len(e.word), 0) + 1
        assert float(e.displacement) >= 4.0 * len(e.word) - 1e-6 or len(e.word) > 1
    assert lengths[0] == 1
    assert lengths[1] == 4
    assert lengths[2] == 12


def test_generating_check_passes_on_tree(f2, f2_ball6):
    rep = check_generating(f2, f2_ball6)
    assert rep.passed
    with pytest.raises(ValueError):
        check_generating(f2, f2_ball6, threshold=5.0)  # above the theoretical bound


def test_generating_check_names_the_least_unreachable_word(f2, f2_ball6):
    # no entry is displaced by 0.5 or less, so only the identity is reached
    rep = check_generating(f2, f2_ball6, threshold=0.5)
    assert not rep.passed and rep.witness == "a"


def test_generating_check_needs_deep_enough_ball(f2):
    with pytest.raises(InsufficientDataError):
        check_generating(f2, enumerate_orbit_ball(f2, 1))


def test_word_metric_comparison_tree(f2, f2_ball6):
    rep = check_word_metric_comparison(f2, f2_ball6, 2.0)
    assert rep.passed
    with pytest.raises(ValueError):
        check_word_metric_comparison(f2, f2_ball6, 0.5)  # below 2D + 72 delta


def test_word_metric_comparison_schottky(schottky, schottky_ball):
    thresh = 2.0 * schottky.declared_codiameter + 72.0 * schottky.declared_delta
    rep = check_word_metric_comparison(schottky, schottky_ball, thresh + 1.0)
    assert rep.passed


def test_orbit_graph_steps_match_the_word_search(f2, schottky):
    # the search on ball indices against the string search it replaced,
    # which composes every product as a word and looks it up: on tree balls
    # at three edges and on Schottky balls, at radii R from below one
    # letter to past the ball, and on plane balls with entries taken out,
    # whose words then miss prefixes (a merged word is missing so)
    from hypcrit.orbits import PlaneBall
    from word_oracle import orbit_graph_steps

    balls = [enumerate_orbit_ball(tree_action(valence=v, edge_length=ell), T)
             for v, ell, T in ((4, 1, 6), (4, Fraction(3, 2), 7), (6, Fraction(2, 3), 2))]
    balls += [enumerate_orbit_ball(schottky, T) for T in (8.0, 14.0)]
    full = balls[-1].entries
    rng = random.Random(3)
    for keep in (0.9, 0.6):
        kept = (full[0],) + tuple(e for e in full[1:] if rng.random() < keep)
        balls.append(PlaneBall(14.0, kept, ()))
    reached = unreached = 0
    for ball in balls:
        # past R = 2 the large tree ball's every word is a step
        for R in (0.5, 1.0, 2.0) + ((4.5, 8.5, 30.0) if ball.count < 200 else ()):
            got = ball._graph_steps(R)
            assert got == orbit_graph_steps(ball.entries, R), (ball.radius, R)
            reached += max(got) > 1
            unreached += -1 in got
    assert reached and unreached


def test_orbit_graph_search_past_a_large_plane_ball_keeps_no_table_per_step(schottky):
    # R past the radius of a 25,384-point ball makes every entry a step, so
    # each is one step from the identity, the word search's answer. A table
    # of one n-long move array per step would hold 25,384^2 int64 (5.2 GB),
    # as would a dense distance table; the frontier search peaks at 6.0 MB
    # under tracemalloc, and the gate leaves it a 2x margin
    import tracemalloc

    ball = enumerate_orbit_ball(schottky, 32.0)
    assert ball.count == 25_384
    tracemalloc.start()
    try:
        got = ball._graph_steps(39.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [0] + [1] * (ball.count - 1)
    assert peak < 12e6, peak


# ---------------------------------------------------------------------------
# the batched plane BFS against the scalar loop it replaced


def scalar_plane_ball(action, T):
    """(entries, count_by_shell, merged_words) of the plane BFS, one word
    at a time with `compose`, `apply_isometry` and `plane_distance`, word
    length capped at T / per_letter_gain of the action's certificate; a
    point merges into the earliest kept entry closer than merge_radius =
    min(1e-6, systole_bound / 10), among the kept entries whose log y is
    within merge_radius of its own (d(z, z') >= |log y - log y'|), kept
    sorted by log y (no hash)."""
    cert = action.certificate
    merge_radius = min(1e-6, cert.systole_bound / 10.0)
    alph = action.alphabet
    follow = {c: [d for d in alph if d != c.swapcase()] for c in alph}
    follow[""] = alph
    max_len = int(math.floor(float(T) / cert.per_letter_gain + 1e-12))
    base = action.basepoint
    entries = [OrbitEntry("", base, 0.0)]
    merged_words = []
    by_height = [(math.log(base.z.imag), 0)]
    frontier = [("", IDENTITY_PLANE)]
    for _ in range(max_len):
        frontier = [
            (w + c, compose(g, action.gen_map[c])) for w, g in frontier for c in follow[w[-1:]]
        ]
        for w, g in frontier:
            p = apply_isometry(action.space, g, base)
            d = plane_distance(base.z, p.z)
            if d > float(T) + 1e-9:
                continue
            u = math.log(p.z.imag)
            lo = bisect.bisect_left(by_height, (u - merge_radius - 1e-9,))
            hi = bisect.bisect_right(by_height, (u + merge_radius + 1e-9, math.inf))
            hits = [
                i for _, i in by_height[lo:hi]
                if plane_distance(entries[i].point.z, p.z) < merge_radius
            ]
            if hits:
                merged_words.append((w, entries[min(hits)].word))
                continue
            bisect.insort(by_height, (u, len(entries)))
            entries.append(OrbitEntry(w, p, d))
    entries.sort(key=lambda e: word_key(e.word))
    disps = sorted(e.displacement for e in entries)
    shells = _count_by_shell(lambda t: bisect.bisect_right(disps, t), T, 1.0, len(entries))
    return tuple(entries), shells, tuple(merged_words)


def bits(entries):
    return [
        (e.word, e.point.z.real.hex(), e.point.z.imag.hex(), e.displacement.hex())
        for e in entries
    ]


def assert_matches_scalar(action, T):
    ball = enumerate_orbit_ball(action, T)
    entries, shells, merged = scalar_plane_ball(action, T)
    assert bits(ball.entries) == bits(entries)
    assert ball.count_by_shell == shells
    assert ball.merged_words == merged
    return ball


@pytest.mark.parametrize("L", [4.5, 4.0, 4.0078125, 3.7])
def test_batched_plane_ball_matches_the_scalar_loop(L):
    desc = schottky_pair(L)
    action = schottky_action(desc, certify_ping_pong(desc))
    for T in (0.0, 3.9, 14.0, 23.0, 26.0):
        ball = assert_matches_scalar(action, T)
        assert ball.merged_words == ()


def hand_certified(gen_map, gain):
    """A plane action under a hand-built certificate: per-letter gain
    `gain` and systole bound 1e-5, so its merge radius is 1e-6."""
    cert = SchottkyCertificate(systole_bound=1e-5, attaining_word="a", per_letter_gain=gain)
    return PlaneAction(gen_map, math.log(3.0), 3.0, cert)


def test_repeated_generator_merges_like_the_scalar_loop():
    # an action whose second generator repeats the first, under a
    # hand-built certificate: "b" lands on "a" and "aB" on the identity,
    # so the merge path runs
    g = schottky_pair(4.0).generators[1]
    action = hand_certified({"a": g, "A": g.inverse(), "b": g, "B": g.inverse()}, 2.0)
    ball = assert_matches_scalar(action, 9.0)
    assert ("b", "a") in ball.merged_words and ("aB", "") in ball.merged_words
    assert [e.word for e in ball.entries] == ["", "a", "A", "aa", "AA"]


def test_dense_action_merges_like_the_scalar_loop():
    # translations by 1 and sqrt 2 and a dilation generate a non-discrete
    # group: its orbit points crowd, and words merge into an entry kept
    # earlier in the same or a neighbouring band
    gens = (
        PlaneIsometry.from_matrix(1.0, 1.0, 0.0, 1.0),
        PlaneIsometry.from_matrix(1.0, math.sqrt(2.0), 0.0, 1.0),
        PlaneIsometry.from_matrix(math.sqrt(1.5), 0.0, 0.0, 1.0 / math.sqrt(1.5)),
    )
    gen_map = {}
    for c, g in zip("abc", gens):
        gen_map[c], gen_map[c.upper()] = g, g.inverse()
    ball = assert_matches_scalar(hand_certified(gen_map, 0.5), 2.0)
    assert ball.merged_words


def dilate_then_shift(x):
    """z -> 10 z + x as a determinant-1 matrix."""
    r = math.sqrt(10.0)
    return PlaneIsometry.from_matrix(r, x / r, 0.0, 1.0 / r)


def test_close_pairs_merge_at_every_height():
    # "a" = D(10) puts i at 10i; "b" = P(4e-6) D(10) puts it 4e-7 away in
    # the hyperbolic metric. "c" sits 1.2e-6 from "a" and is kept; "d"
    # sits 6e-7 from both "a" and "c", left of both, and merges into the
    # earlier entry "a", whichever point is compared first
    gens = [dilate_then_shift(x) for x in (0.0, 4e-6, -1.2e-5, -6e-6)]
    gen_map = {}
    for c, g in zip("abcd", gens):
        gen_map[c], gen_map[c.upper()] = g, g.inverse()
    ball = assert_matches_scalar(hand_certified(gen_map, 2.0), 2.5)
    assert ball.merged_words == (("b", "a"), ("d", "a"))
    assert [e.word for e in ball.entries] == ["", "a", "A", "B", "c", "C", "D"]


def test_merge_hash_finds_the_earliest_close_point():
    # random points from near the real axis to high up, with clusters
    # closer than r, against a scan of all earlier points; the last two
    # cases are deep, |x| / y up to about 1e16, where the x window is the
    # rounding pad 1e-15 |x| and is wider than y by orders of magnitude
    cases = [(r, (-25.0, 5.0), 1500) for r in (1e-6, 0.05, 0.2, 0.4)]
    cases += [(r, (-33.0, -25.0), 600) for r in (1e-6, 0.4)]
    for r, log_y, n in cases:
        rng = random.Random(8)
        near = _MergeHash(r)
        kept = []
        for k in range(n):
            if kept and rng.random() < 0.3:
                q = rng.choice(kept)[1]
                t = rng.uniform(0.0, 1.2 * r)
                z = complex(q.real + q.imag * t * rng.uniform(-1, 1), q.imag * math.exp(rng.uniform(-t, t)))
            else:
                z = complex(rng.uniform(-50.0, 50.0), math.exp(rng.uniform(*log_y)))
            want = next((i for i, q in kept if plane_distance(q, z) < r), None)
            assert near.find_or_add(z, k) == want
            if want is None:
                kept.append((k, z))
        assert 0 < len(kept) < n


def test_plane_entries_carry_their_isometries(schottky):
    # the matrix rows the BFS composed, bitwise the scalar left-to-right
    # product of `action.isometry`
    ball = enumerate_orbit_ball(schottky, 23.0)
    for e in ball.entries:
        want = schottky.isometry(e.word).mat
        assert [x.hex() for x in e.isometry.mat] == [x.hex() for x in want], e.word
    assert ball.count > 1000


def test_deep_plane_ball_is_fast(schottky):
    # at T = 32, |x| / y of the orbit points reaches about 4e13, and the
    # merge index reads only the points in each query's x window
    start = time.perf_counter()
    ball = enumerate_orbit_ball(schottky, 32.0)
    assert time.perf_counter() - start < 2.0
    assert ball.count == 25_384 and ball.merged_words == ()


def test_plane_ball_beyond_float64_is_refused(schottky):
    with pytest.raises(NumericalLimitError):
        enumerate_orbit_ball(schottky, PLANE_RADIUS_LIMIT + 0.5)


#: sha256 of `ball_read_record()`, recorded on the bundled runs' ball
#: reads before the orbit ball was split into `TreeBall` and `PlaneBall`,
#: and re-recorded when the Poincare sum came to add one run per level:
#: only the edge-2/3, T = 10 line moved, from the cap's refusal to its
#: values, each sum bitwise a plain loop over its 28,697,813 terms
BALL_READS_SHA256 = "e92daa800e93a36946403cf53d7a9080a2baba2ae4ee25569802c620c2d597e6"


def ball_read_record():
    """One line per ball: the float.hex of its Poincare sums at s = 0.4
    and 1.3, its count samples and shells, its displacements at ranks 1,
    count // 2 and count, and its systole report, or the type of the
    error where a read is refused. Tree balls at edge 1, 3/2 and 2/3 and
    T = 0, 1, 6 and 10 (edge 2/3 at T = 10 passes the element cap),
    Schottky pairs at L = 4 and 4.5 and T = 12 and 23."""
    from hypcrit.entropy import poincare_partial

    def hexed(v):
        if isinstance(v, (float, Fraction, int)) and not isinstance(v, bool):
            return float(v).hex()
        if isinstance(v, (tuple, list)):
            return [hexed(x) for x in v]
        return v

    cases = [(tree_action(edge_length=Fraction(ell)), T)
             for ell in ("1", "3/2", "2/3") for T in (0, 1, 6, 10)]
    for L in (4.0, 4.5):
        desc = schottky_pair(L)
        cases += [(schottky_action(desc, certify_ping_pong(desc)), T) for T in (12.0, 23.0)]
    lines = []
    for action, T in cases:
        out = []
        try:
            ball = enumerate_orbit_ball(action, T)
            out += [poincare_partial(ball, s) for s in (0.4, 1.3)]
            out += [ball.count_samples, ball.count_by_shell]
            n = ball.count
            out += [ball.displacement_at(k) for k in (1, max(n // 2, 1), n)]
            out.append(list(measure_systole(action, ball)))
        except (CertificationError, InsufficientDataError) as exc:
            out.append(type(exc).__name__)
        lines.append(repr(hexed(out)))
    return "\n".join(lines)


def test_ball_reads_keep_their_bits():
    import hashlib

    start = time.perf_counter()
    record = ball_read_record()
    assert hashlib.sha256(record.encode()).hexdigest() == BALL_READS_SHA256
    assert time.perf_counter() - start < 5.0
