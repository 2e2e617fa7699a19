"""Group actions and pruned breadth-first orbit-ball enumeration.

One action per model, `TreeAction` (F_r on its Cayley tree) or
`PlaneAction` (a certified Schottky group), with one interface and no
base class, builds its own orbit ball: all distinct orbit points within
radius T, deduplicated, in canonical word order. One ball per model,
`TreeBall` (level sizes) or `PlaneBall` (entries), with one reading
interface and no base class, owns its counting function N(t), the number
of points displaced by at most t. The generating and word-metric checks
search the orbit graph on ball indices (`_orbit_graph_steps`), so a tree
ball lists no word for them."""

import bisect
import math
import sys
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, islice, repeat

from .errors import CertificationError, InsufficientDataError, NumericalLimitError, ParameterError
from .isometries import (
    IDENTITY_PLANE,
    PlaneIsometry,
    TreeIsometry,
    _generator_map,
    _images_of_i,
    _word_levels,
    apply_isometry,
    compose,
)
from .space import ModelSpace, PlanePoint, TreePoint, plane_distance
from .words import _ORDER, compose_words, letters, word_key, word_levels

#: hard cap on the words a plane ball builds, where hitting it aborts with
#: a diagnosis (a non-discrete action would otherwise loop), and on the
#: points a read of a tree ball takes a step for (`TreeBall._listable`)
ELEMENT_CAP = 2_000_000

#: the deepest plane ball float64 resolves: g(i) is off by a few eps (|ad| +
#: |bc|) <= eps cosh d(i, g i), as its imaginary part cancels ad against
#: bc; this radius (about 32.1) keeps that bound at 1e-2
PLANE_RADIUS_LIMIT = math.acosh(1e-2 / sys.float_info.epsilon)


def _orbit_graph_steps(ball, R):
    """Steps from the identity to each of a ball's entries, in entry
    order, in the orbit graph that joins g to g s for every entry s
    displaced by at most R, through the entries; -1 where no path reaches
    the entry. The identity is entry 0 of every ball.

    The search runs on ball indices. The ball's words closed under
    prefixes are numbered, and `_letter_tables` maps each number and
    letter to the number of the reduced product, or to the number past
    them where the product leaves the set (which then maps to itself): g s
    is g times the letters of s, one table read each. As s is reduced, it
    cancels against g only in its first letters, and from the first letter
    that does not cancel the product only grows; a set closed under
    prefixes holds no extension of a word it lacks, so a product that
    leaves it never comes back, and -1 is exact."""
    import numpy as np

    rmul, nodes = ball._letter_tables()
    entry = np.full(rmul.shape[1], -1)
    entry[nodes] = np.arange(len(nodes))
    moves = []
    for s in ball._steps(R):
        image = nodes
        for c in s:
            image = rmul[_ORDER[c], image]
        moves.append(entry[image])
    dist = np.full(len(nodes), -1)
    dist[0] = 0
    frontier, level = np.zeros(1, dtype=np.int64), 0
    while len(frontier) and moves:
        level += 1
        # an image off the entries, -1, lands in the last slot
        reach = np.zeros(len(nodes) + 1, dtype=bool)
        for move in moves:
            reach[move[frontier]] = True
        frontier = np.flatnonzero(reach[:-1] & (dist < 0))
        dist[frontier] = level
    return dist.tolist()


#: the reads both actions share
_basepoint = property(lambda action: action.space.basepoint)
_alphabet = property(lambda action: letters(action.rank))


def _orbit_point(action, word):
    return apply_isometry(action.space, action.isometry(word), action.space.basepoint)


class TreeAction:
    """F_r, r = valence / 2, acting freely and discretely on its Cayley tree
    `space`, so it needs no certificate. ``declared_delta`` and
    ``declared_codiameter`` are the class constants the audits are run
    against. Two actions are equal only if they are the same object."""

    __slots__ = ("space", "rank", "declared_delta", "declared_codiameter")

    def __init__(self, space, declared_delta, declared_codiameter):
        # reading the rank refuses an odd valence
        self.space, self.rank, self.declared_delta, self.declared_codiameter = (
            space, space.rank, declared_delta, declared_codiameter)

    basepoint, alphabet, orbit_point = _basepoint, _alphabet, _orbit_point

    @property
    def closed_form_exponent(self):
        return math.log(self.space.valence - 1) / float(self.space.edge_length)

    def orbit_ball(self, T):
        """The `TreeBall` within displacement T >= 0: it counts its levels
        and builds no word. Its depth is int(T / edge_length), so its radius
        snaps down to the edge grid. The action being free and discrete, a
        ball of any size is counted; the reads that take a step per point
        refuse one past ELEMENT_CAP (`TreeBall._listable`), and a count
        past float64 is refused here, before its levels are built."""
        gain = self.space.edge_length
        depth, sizes, n = int(Fraction(T) / gain), [1], 1
        for k in range(1, depth + 1):
            sizes.append(2 * self.rank * (2 * self.rank - 1) ** (k - 1))
            n += sizes[-1]
            if n > sys.float_info.max:
                raise NumericalLimitError("a tree ball of depth %d holds more than %.4g points, "
                                          "past float64" % (depth, sys.float_info.max))
        return TreeBall(self.rank, gain, tuple(sizes))

    #: a word is its isometry, and d_Sigma(g, id) its steps in the orbit graph
    isometry, word_metric = staticmethod(TreeIsometry), staticmethod(_orbit_graph_steps)


class PlaneAction:
    """A Schottky group acting on the upper half-plane. ``gen_map`` maps
    each alphabet letter (generator or inverse) to its `PlaneIsometry`, so
    the generator list is closed under inverses by construction. The
    ping-pong ``certificate`` is required: it bounds the orbit ball."""

    __slots__ = ("gen_map", "declared_delta", "declared_codiameter", "certificate")
    space = ModelSpace.plane()
    #: none yet on the plane (ROADMAP item 1)
    closed_form_exponent = None

    def __init__(self, gen_map, declared_delta, declared_codiameter, certificate):
        if certificate is None:
            raise CertificationError("plane action has no ping-pong certificate")
        self.gen_map, self.declared_delta, self.declared_codiameter, self.certificate = (
            gen_map, declared_delta, declared_codiameter, certificate)

    basepoint, alphabet, orbit_point = _basepoint, _alphabet, _orbit_point

    @property
    def rank(self):
        return len(self.gen_map) // 2

    def isometry(self, word):
        g = IDENTITY_PLANE
        for c in word:
            g = compose(g, self.gen_map[c])
        return g

    def orbit_ball(self, T):
        """The `PlaneBall` within displacement T >= 0. The certificate's
        `per_letter_gain` c caps word length at T / c, and a point closer
        than min(1e-6, systole_bound / 10) to a kept entry merges into the
        earliest such entry, found by `_MergeHash`.

        A level is composed on stacked matrix rows (`_word_levels`) and its
        images of i come from `_images_of_i`, bitwise equal to the scalar
        `compose` and `apply_isometry`; a kept entry keeps its row as its
        `isometry`. Displacements and merge distances stay `plane_distance`
        calls: numpy's `arcsinh` and complex `abs` differ from libm in the
        last bit."""
        cert = self.certificate
        if cert.per_letter_gain <= 0:
            raise CertificationError("per-letter gain must be positive (termination)")
        if float(T) > PLANE_RADIUS_LIMIT:
            raise NumericalLimitError("plane ball radius %.6g beyond float64's %.4g"
                                      % (float(T), PLANE_RADIUS_LIMIT))
        alph = self.alphabet
        max_len = int(math.floor(float(T) / cert.per_letter_gain + 1e-12))
        reach = float(T) + 1e-9  # closed ball at the declared tolerance
        base = self.basepoint
        entries = [OrbitEntry("", base, 0.0, IDENTITY_PLANE)]
        merged_words = []
        near = _MergeHash(min(1e-6, cert.systole_bound / 10.0))
        near.find_or_add(base.z, 0)
        levels = _word_levels(self.gen_map, alph)
        for k in range(1, max_len + 1):
            # level k builds every reduced word of length k, in the ball or not
            if len(entries) + len(alph) * (len(alph) - 1) ** (k - 1) > ELEMENT_CAP:
                raise CertificationError("element cap hit; action looks non-discrete")
            words, mats = next(levels)
            for w, z, m in zip(words, _images_of_i(mats), mats):
                d = plane_distance(base.z, z)
                if d > reach:
                    continue
                hit = near.find_or_add(z, len(entries))
                if hit is not None:
                    merged_words.append((w, entries[hit].word))
                    continue
                entries.append(OrbitEntry(w, PlanePoint(z), d, PlaneIsometry(tuple(m.tolist()))))

        # the levels, and so the entries, are already in canonical word order
        return PlaneBall(T, tuple(entries), tuple(merged_words))

    def word_metric(self, ball, R):
        """Steps, for each entry of the ball, in the graph that joins every
        two orbit points at distance <= R, whatever their quotient: it need
        not lie in the ball, as R may exceed the ball radius."""
        import numpy as np

        from .arrays import pairwise_distances

        n = ball.count
        close = pairwise_distances(self.space, ball.points()) <= float(R) + 1e-9
        dist = np.full(n, -1, dtype=int)
        dist[0] = 0
        frontier = dist == 0
        level = 0
        while frontier.any():
            level += 1
            reach = close[frontier].any(axis=0) & (dist < 0)
            dist[reach] = level
            frontier = reach
        return list(dist)


def tree_action(valence=4, edge_length=1, declared_delta=0.0, declared_codiameter=0.5):
    return TreeAction(ModelSpace.tree(valence, edge_length), declared_delta, declared_codiameter)


def schottky_action(desc, certificate, declared_delta=math.log(3.0), declared_codiameter=3.0):
    return PlaneAction(_generator_map(desc.generators), declared_delta, declared_codiameter,
                       certificate)


class OrbitEntry(namedtuple("OrbitEntry", "word point displacement isometry", defaults=(None,))):
    """The orbit point of a word g and its displacement d(x, g x). A
    plane entry from `enumerate_orbit_ball` also carries g's
    `PlaneIsometry`, the matrix row its BFS level composed, bitwise
    `action.isometry(word)`; a tree entry's isometry is None (its word is
    its isometry). The displacement is a Fraction on trees, a float on
    the plane."""

    __slots__ = ()


def _refuse_past_cap(depth, count):
    """Refuse, with its size, a read that takes a step for each of the
    `count` points of a tree ball of the given depth past ELEMENT_CAP."""
    if count > ELEMENT_CAP:
        raise CertificationError("a tree ball of depth %d holds %d points, past the element cap %d"
                                 % (depth, count, ELEMENT_CAP))


def _sorted_runs(ball):
    """(ds, ns): the displacements of the ball's runs in nondecreasing order
    and ns[i] the number of points displaced by at most ds[i]."""
    runs = sorted(ball.runs())
    return [d for d, _ in runs], list(accumulate(n for _, n in runs))


def _count_within(ball, t):
    """N(t): the number of points displaced by at most t."""
    ds, ns = ball._sorted
    j = bisect.bisect_right(ds, t)
    return ns[j - 1] if j else 0


def _displacement_at(ball, n):
    """The n-th smallest displacement, 1 <= n <= count, as a float."""
    ds, ns = ball._sorted
    return ds[bisect.bisect_left(ns, n)]


class TreeBall:
    """The orbit ball of F_r, r = `rank`, on its Cayley tree: its level
    `sizes`, level k holding the 2r (2r - 1)^(k - 1) reduced words of length
    k, each displaced by k * edge_length (`level_displacements`, as floats).
    It stores no word: `entries`, `points` and `words` list the levels, and
    every read that takes a step per point refuses a ball past ELEMENT_CAP
    (`_listable`)."""

    def __init__(self, rank, edge_length, sizes):
        self.rank, self.edge_length, self.sizes, self.count = rank, edge_length, sizes, sum(sizes)
        self.radius = edge_length * (len(sizes) - 1)
        self.level_displacements = [float(k * edge_length) for k in range(len(sizes))]

    _sorted = cached_property(_sorted_runs)
    count_within = _count_within
    displacement_at = _displacement_at

    def _listable(self):
        _refuse_past_cap(len(self.sizes) - 1, self.count)

    def _tree_levels(self):
        self._listable()
        return islice(word_levels(self.rank), len(self.sizes))

    def _steps(self, R):
        """The nonempty words displaced by at most R, listed: the levels
        within R + 1e-12."""
        k = bisect.bisect_right(self.level_displacements, float(R) + 1e-12)
        return [w for words in islice(word_levels(self.rank), 1, k) for w in words]

    def _letter_tables(self):
        """(rmul, nodes) of `_orbit_graph_steps`, from the level sizes
        alone: the ball is closed under prefixes, so its nodes are its
        entries. rmul[c, i] is the index of word i times the letter of rank
        c, count off the ball. In canonical order the words of level k
        follow their parents', each parent's children in letter order less
        the inverse of its last letter: word t of level k >= 1 is child t
        // fan of level k - 1 by its digit t % fan, with fan = 2 rank
        children of the identity and 2 rank - 1 of any other word."""
        import numpy as np

        self._listable()
        q, n = 2 * self.rank, self.count
        rmul = np.full((q, n + 1), n, dtype=np.int64)
        # the rank of the inverse of each word's last letter; q: none
        skip = np.full(n, q, dtype=np.int64)
        start = np.cumsum((0,) + self.sizes)
        for k in range(1, len(self.sizes)):
            ids = np.arange(start[k], start[k + 1])
            parent, digit = np.divmod(ids - start[k], q if k == 1 else q - 1)
            parent += start[k - 1]
            letter = digit + (digit >= skip[parent])
            rmul[letter, parent] = ids
            rmul[letter ^ 1, ids] = parent
            skip[ids] = letter ^ 1
        return rmul, np.arange(n)

    @property
    def entries(self):
        L = self.edge_length
        return tuple(OrbitEntry(w, TreePoint(w), k * L)
                     for k, words in enumerate(self._tree_levels()) for w in words)

    def points(self):
        return [TreePoint(w) for w in self.words()]

    def words(self):
        return [w for words in self._tree_levels() for w in words]

    def runs(self):
        """(displacement, count) runs in entry order: one per level."""
        return zip(self.level_displacements, self.sizes)

    def shortest(self):
        """(displacement, word) of the least displaced nonidentity element:
        one edge, and the first letter, first of the words of length 1."""
        if len(self.sizes) < 2:
            raise InsufficientDataError("ball has no nonidentity entries")
        return self.edge_length, letters(self.rank)[0]

    @cached_property
    def count_by_shell(self):
        """((t, N(t)), ...) one edge apart up to the radius (`_count_by_shell`)."""
        return _count_by_shell(self.count_within, self.radius, float(self.edge_length), self.count)

    @property
    def count_samples(self):
        """(T, N(T)) samples for the exponent estimators: the shells."""
        return list(self.count_by_shell)


class PlaneBall:
    """The distinct orbit points of a Schottky action within displacement
    `radius`, as `entries` in canonical word order, and the (word, kept
    word) `merged_words` whose points merged into an earlier entry's."""

    def __init__(self, radius, entries, merged_words):
        self.radius, self._entries, self.merged_words = radius, entries, merged_words
        self.count = len(entries)

    _sorted = cached_property(_sorted_runs)
    count_within = _count_within
    displacement_at = _displacement_at

    @property
    def entries(self):
        return self._entries

    def points(self):
        return [e.point for e in self._entries]

    def words(self):
        return [e.word for e in self._entries]

    def runs(self):
        """(displacement, count) runs in entry order: (d, 1) per entry."""
        return ((e.displacement, 1) for e in self._entries)

    def _listable(self):
        """A plane ball was held to ELEMENT_CAP as it was built."""

    def _steps(self, R):
        return [e.word for e in self._entries if e.word and float(e.displacement) <= float(R) + 1e-12]

    def _letter_tables(self):
        """(rmul, nodes) of `_orbit_graph_steps` on the entries' words
        closed under prefixes: a plane ball need not hold a prefix of its
        words, nor a merged word. rmul[c, i] is the number of prefix i
        times the letter of rank c (`compose_words`), the number of
        prefixes where that is none; nodes holds each entry's number."""
        import numpy as np

        words = self.words()
        trie = list(dict.fromkeys(w[:k] for w in words for k in range(len(w) + 1)))
        at = {w: i for i, w in enumerate(trie)}
        top = max((_ORDER[c] for w in words for c in w), default=0)
        rmul = np.array([[at.get(compose_words(w, c), len(trie)) for w in trie] + [len(trie)]
                         for c in letters(top // 2 + 1)], dtype=np.int64)
        return rmul, np.array([at[w] for w in words], dtype=np.int64)

    def shortest(self):
        """(displacement, word) of the least displaced nonidentity entry,
        the first in canonical order among equals."""
        nonid = [e for e in self._entries if e.word]
        if not nonid:
            raise InsufficientDataError("ball has no nonidentity entries")
        best = min(nonid, key=lambda e: (float(e.displacement), word_key(e.word)))
        return best.displacement, best.word

    @cached_property
    def count_by_shell(self):
        """((t, N(t)), ...) one unit apart up to the radius (`_count_by_shell`)."""
        return _count_by_shell(self.count_within, self.radius, 1.0, self.count)

    @property
    def count_samples(self):
        """(T, N(T)) samples for the exponent estimators, built on each
        read: one per displacement, a displacement within 1e-9 of the last
        sample's raising its count."""
        out = []
        for d, n in zip(*self._sorted):
            if out and d - out[-1][0] < 1e-9:
                out[-1] = (out[-1][0], n)
            else:
                out.append((d, n))
        return out


def enumerate_orbit_ball(action, T):
    """All distinct orbit points within displacement T of the basepoint,
    the action's own ball: breadth-first over reduced words, each level
    expanding a canonically ordered frontier letter by letter, every bound
    read from the action. The ELEMENT_CAP check runs before a level is
    built, on the number of words it would build."""
    if T < 0:
        raise ParameterError("ball radius must be nonnegative")
    return action.orbit_ball(T)


class _MergeHash:
    """Plane points with their indices, kept so that every point closer
    than r to a query is compared: one x-sorted list per log-y band.

    Band b holds the points with b h <= log y < (b + 1) h, h = 4 r, in
    increasing x. A point z' closer than r to z = x + iy differs from it by
    less than r in log y, as d(z, z') >= |log y - log y'|, so it lies in
    one of the bands meeting log y +- r. As |x - x'| <= |z - z'| = 2
    sqrt(y y') sinh(d/2) and y' < y e^r, it differs from z by less than
    y (e^r - 1) in x, so `bisect` finds it among the band's points with x'
    in [x - dx, x + dx], dx = y (e^r - 1). Both ranges are widened for
    rounding. Only points in that window are read, whatever the ratio
    |x| / y, so a query costs O(log n + points read) per band.
    """

    def __init__(self, r):
        self.r, self.h = r, 4.0 * r
        self.grow = math.expm1(r) * (1.0 + 1e-6)
        self.bands = {}

    def find_or_add(self, z, index):
        """The smallest index of a point closer than r to z; where there is
        none, z is added under `index` and None returned."""
        x, y, h = z.real, z.imag, self.h
        u = math.log(y)
        pad = self.r * (1.0 + 1e-6) + 1e-15 * abs(u)
        dx = y * self.grow + 1e-15 * abs(x)
        hit = None
        for b in range(math.floor((u - pad) / h), math.floor((u + pad) / h) + 1):
            xs, pts = self.bands.get(b, ((), ()))
            for i, q in pts[bisect.bisect_left(xs, x - dx):bisect.bisect_right(xs, x + dx)]:
                if (hit is None or i < hit) and plane_distance(q, z) < self.r:
                    hit = i
        if hit is None:
            xs, pts = self.bands.setdefault(math.floor(u / h), ([], []))
            j = bisect.bisect_right(xs, x)
            xs.insert(j, x)
            pts.insert(j, (index, z))
        return hit


def _count_by_shell(count_le, T, shell_step, total):
    """((t, N(t)), ...) on the grid 0, shell_step, ... up to T, closed by
    (T, total) when T is off the grid; count_le(t) counts displacements
    <= t."""
    shells = []
    t = 0.0
    Tf = float(T)
    while t <= Tf + 1e-12:
        shells.append((t, count_le(t + 1e-12)))
        t += shell_step
    if not shells or abs(shells[-1][0] - Tf) > 1e-12:
        shells.append((Tf, total))
    return tuple(shells)


# ---------------------------------------------------------------------------
# derived measurements


SystoleReport = namedtuple(
    "SystoleReport", "min_displacement attaining_word elements_examined note",
    defaults=("upper bound on the true systole: deeper elements could be shorter",),
)


def measure_systole(action, ball):
    return SystoleReport(*ball.shortest(), ball.count)


def measure_codiameter(action, ball, hull_samples):
    """Max over hull samples of the distance to the nearest orbit point.

    An empirical lower estimate of the codiameter (denser hulls or deeper
    balls can only increase it).
    """
    if not hull_samples:
        raise ValueError("need at least one hull sample")
    from .arrays import distances_to_point

    pts = ball.points()
    worst = 0.0
    for q in hull_samples:
        d = distances_to_point(action.space, pts, q).min()
        worst = max(worst, float(d))
    return worst


CheckReport = namedtuple("CheckReport", "passed witness detail", defaults=(None, None))


def check_generating(action, ball, threshold=None):
    """Every ball entry is a product of small-displacement elements.

    The default threshold 2D + 72*delta is the theoretical generating
    bound; passing a smaller explicit threshold verifies a stronger
    statement (the small set already generates), hence still certifies the
    bound. Pass means every entry is reachable from the identity in the
    orbit graph of `_orbit_graph_steps` with R = threshold; on failure the
    witness is the least unreachable word in canonical order, the entries'
    order, and only then are the ball's words listed.
    """
    theo = 2.0 * action.declared_codiameter + 72.0 * action.declared_delta
    if threshold is None:
        threshold = theo
    if threshold > theo + 1e-9:
        raise ParameterError("threshold above the theoretical generating bound")
    if float(ball.radius) < 2.0 * threshold - 1e-9:
        raise InsufficientDataError(
            "ball radius %s < 2x threshold %s" % (ball.radius, threshold)
        )
    dist = _orbit_graph_steps(ball, threshold)
    if -1 not in dist:
        return CheckReport(True, detail={"threshold": threshold})
    return CheckReport(False, witness=ball.words()[dist.index(-1)], detail={"threshold": threshold})


def word_metric_distances(action, ball, R):
    """d_Sigma(g, id) for every entry, -1 where unreachable: the action's
    `word_metric` on the ball."""
    return action.word_metric(ball, R)


def check_word_metric_comparison(action, ball, R):
    """(R - 2D - 72*delta) * d_Sigma(g) <= d(gx, x) <= R * d_Sigma(g).

    Displacements come from the ball's runs, in entry order; its words are
    listed only for a failure's witness."""
    thresh = 2.0 * action.declared_codiameter + 72.0 * action.declared_delta
    if R <= thresh:
        raise ParameterError("R must exceed 2D + 72*delta = %.6g" % thresh)
    lower_c = R - thresh
    dsig = action.word_metric(ball, R)
    disp = chain.from_iterable(repeat(float(d), n) for d, n in ball.runs())
    worst_lower = worst_upper = 0.0
    for i, (k, d) in enumerate(zip(dsig, disp)):
        if k < 0:
            return CheckReport(False, witness=("unreachable", ball.words()[i]))
        if lower_c * k > d + 1e-9 or d > R * k + 1e-9:
            return CheckReport(
                False, witness=(ball.words()[i], k, d), detail={"R": R, "threshold": thresh}
            )
        if k:
            worst_lower = max(worst_lower, lower_c * k / d) if d else worst_lower
            worst_upper = max(worst_upper, d / (R * k))
    return CheckReport(
        True,
        detail={
            "R": R,
            "threshold": thresh,
            "worst_lower_ratio": worst_lower,
            "worst_upper_ratio": worst_upper,
        },
    )
