"""Group actions and pruned breadth-first orbit-ball enumeration.

One action per model, `TreeAction` (F_r on its Cayley tree) or
`PlaneAction` (a certified Schottky group), with one interface and no
base class, builds its own orbit ball: all distinct orbit points within
radius T, deduplicated, in canonical word order. One ball per model,
`TreeBall` (level sizes) or `PlaneBall` (entries), with one reading
interface and no base class, owns its counting function N(t), the number
of points displaced by at most t, its word metric (`_graph_steps`, a
closed form on the tree) and its sums over points (`_run_sum`, one step a
run of equal displacements)."""

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
#: points a read of a tree ball lists (`TreeBall._listable`)
ELEMENT_CAP = 2_000_000

#: the deepest plane ball float64 resolves: g(i) is off by a few eps (|ad| +
#: |bc|) <= eps cosh d(i, g i), as its imaginary part cancels ad against
#: bc; this radius (about 32.1) keeps that bound at 1e-2
PLANE_RADIUS_LIMIT = math.acosh(1e-2 / sys.float_info.epsilon)


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
        ball of any size is counted; the reads that list its points refuse
        one past ELEMENT_CAP (`TreeBall._listable`), and a count past
        float64 is refused here, before its levels are built."""
        gain = self.space.edge_length
        depth, sizes, n = int(Fraction(T) / gain), [1], 1
        for k in range(1, depth + 1):
            sizes.append(2 * self.rank * (2 * self.rank - 1) ** (k - 1))
            n += sizes[-1]
            if n > sys.float_info.max:
                raise NumericalLimitError("a tree ball of depth %d holds more than %.4g points, "
                                          "past float64" % (depth, sys.float_info.max))
        return TreeBall(self.rank, gain, tuple(sizes))

    #: a word is its isometry
    isometry = staticmethod(TreeIsometry)


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


def _add_copies(acc, w, count):
    """acc + w + ... + w, `count` copies of w added left to right in float64
    as `acc += w` adds them, in O(log(sum / w)) steps (acc, w >= 0, sums
    below 2^1023).

    Proof. With u = ulp(acc) and acc = M u, the floats in [acc, 2^53 u] are
    the multiples of u (2^53 u ends a normal acc's binade; a subnormal acc
    or 0 has u = 2^-1074). While an exact sum M' u + w, M' >= M, stays
    below 2^53 u, round to nearest gives (M' + q + b) u, where w / u = q + f
    exactly (q an integer, 0 <= f < 1) and b = [f > 1/2], or at a tie
    f = 1/2 the b making M' + q + b even. So the step, exact by Sterbenz,
    is S = q + b at every addition off ties, and q + (q mod 2) at ties from
    an even M', as every result is then even. The j-th addition of such a
    run stays below 2^53 u iff (j - 1) S <= 2^53 - M - q - 1 (integers),
    so n of them give (M + n S) u exactly; S = 0 leaves acc fixed. Else
    (w >= 2^53 u - acc, as while acc < w, or a tie at an odd M) one plain
    addition crosses a binade or makes M even: three steps per binade.
    """
    while count:
        u = math.ulp(acc)
        if w < u * 2**53 - acc:  # exactly (2^53 - M) u
            W, M = w / u, int(acc / u)
            q = int(W)
            f = W - q
            if f != 0.5 or not M & 1:
                S = q + (1 if f > 0.5 else q & 1 if f == 0.5 else 0)
                if not S:
                    return acc
                n = min(count, (2**53 - M - q - 1) // S + 1)
                acc, count = (M + n * S) * u, count - n
                continue
        acc, count = acc + w, count - 1
    return acc


def _run_sum(ball, f):
    """f(d) over the ball's points, d each one's displacement, added left
    to right in entry order as `acc += f(d)` adds them: one `_add_copies`
    per (d, n) run of `ball.runs()`, so a tree ball past ELEMENT_CAP is
    summed level by level."""
    total = 0.0
    for d, n in ball.runs():
        total = _add_copies(total, f(d), n)
    return total


class TreeBall:
    """The orbit ball of F_r, r = `rank`, on its Cayley tree: its level
    `sizes`, level k holding the 2r (2r - 1)^(k - 1) reduced words of length
    k, each displaced by k * edge_length (`level_displacements`, as floats).
    It stores no word: `entries`, `points` and `words` list the levels, and
    every read that lists its points refuses a ball past ELEMENT_CAP
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

    def _graph_steps(self, R):
        """d_Sigma(g, id) for each entry g, in entry order (`check_generating`),
        in closed form: ceil(k / m) for a word of length k, where m is the
        longest word length within R + 1e-12 in the ball, and -1 for every
        word but the identity where m is 0.

        Proof. The steps are the words s of length 1..m, and g s has length
        at most |g| + m, so a word of length k takes at least ceil(k / m)
        steps. Its prefixes of length m, 2m, ... and k are a path of that
        many: each is the one before times a reduced word of length <= m,
        and each is an entry, as the ball holds every word of length at
        most its depth >= m. One value per point: a ball past ELEMENT_CAP
        is refused."""
        self._listable()
        m = bisect.bisect_right(self.level_displacements, float(R) + 1e-12) - 1
        steps = [0]
        for k, n in enumerate(self.sizes[1:], 1):
            steps += [-(-k // m) if m > 0 else -1] * n
        return steps

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

    def _graph_steps(self, R):
        """d_Sigma(g, id) for each entry g, in entry order: its steps from
        the identity, entry 0, in the orbit graph that joins g to g s for
        every entry s displaced by at most R + 1e-12, through the entries;
        -1 where no path reaches it (`check_generating`).

        The search runs on numbers. The entries' words closed under
        prefixes are numbered (a plane ball need not hold a prefix of its
        words, nor a merged word), and rmul[c, i] is the number of prefix i
        times the letter of rank c (`compose_words`), or the number past
        them, which maps to itself, where that product is none: g s is g
        times the letters of s, one table read each. As s is reduced, it
        cancels against g only in its first letters, and from the first
        letter that does not cancel the product only grows; a set closed
        under prefixes holds no extension of a word it lacks, so a product
        that leaves it never comes back, and -1 is exact. Each level
        multiplies only its frontier by the steps, a block of frontier
        rows at a time, and the search stops once every entry is reached."""
        import numpy as np

        words = self.words()
        trie = list(dict.fromkeys(w[:k] for w in words for k in range(len(w) + 1)))
        at = {w: i for i, w in enumerate(trie)}
        top = max((_ORDER[c] for w in words for c in w), default=0)
        rmul = np.array([[at.get(compose_words(w, c), len(trie)) for w in trie] + [len(trie)]
                         for c in letters(top // 2 + 1)], dtype=np.int64)
        node = np.array([at[w] for w in words], dtype=np.int64)
        entry = np.full(len(trie) + 1, -1)
        entry[node] = np.arange(self.count)
        # longest step first, so the steps with a j-th letter lead column j
        steps = sorted((e.word for e in self._entries
                        if e.word and float(e.displacement) <= float(R) + 1e-12), key=len, reverse=True)
        cols = [np.array([_ORDER[w[j]] for w in steps if len(w) > j])
                for j in range(max(map(len, steps), default=0))]
        block = max(1, 2**16 // max(len(steps), 1))
        dist = np.full(self.count, -1)
        dist[0] = 0
        frontier, level, left = np.zeros(1, dtype=np.int64), 0, self.count - 1
        while len(frontier) and left:
            level += 1
            # an image off the entries, -1, lands in the last slot
            reach = np.zeros(self.count + 1, dtype=bool)
            for i in range(0, len(frontier), block):
                image = np.repeat(node[frontier[i:i + block], None], len(steps), axis=1)
                for col in cols:
                    image[:, :len(col)] = rmul[col, image[:, :len(col)]]
                reach[entry[image]] = True
            frontier = np.flatnonzero(reach[:-1] & (dist < 0))
            dist[frontier] = level
            left -= len(frontier)
        return dist.tolist()

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
    ball's orbit graph (`_graph_steps`) with R = threshold; on failure the
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
    dist = ball._graph_steps(threshold)
    if -1 not in dist:
        return CheckReport(True, detail={"threshold": threshold})
    return CheckReport(False, witness=ball.words()[dist.index(-1)], detail={"threshold": threshold})


def word_metric_distances(action, ball, R):
    """d_Sigma(g, id) for every entry, -1 where unreachable: the ball's
    orbit-graph steps at scale R."""
    return ball._graph_steps(R)


def check_word_metric_comparison(action, ball, R):
    """(R - 2D - 72*delta) * d_Sigma(g) <= d(gx, x) <= R * d_Sigma(g).

    Displacements come from the ball's runs, in entry order; its words are
    listed only for a failure's witness."""
    thresh = 2.0 * action.declared_codiameter + 72.0 * action.declared_delta
    if R <= thresh:
        raise ParameterError("R must exceed 2D + 72*delta = %.6g" % thresh)
    lower_c = R - thresh
    dsig = ball._graph_steps(R)
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
