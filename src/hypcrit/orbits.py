"""Group actions and pruned breadth-first orbit-ball enumeration.

One action per model, `TreeAction` (F_r on its Cayley tree) or
`PlaneAction` (a certified Schottky group), with one interface and no
base class, builds its own orbit ball: the orbit points within radius T,
one per reduced word, as both actions are free, in canonical word order.
One ball per model, `TreeBall` (level sizes) or `PlaneBall` (entries),
with one reading interface and no base class, owns its counting function
N(t), the number of points displaced by at most t, its word metric
(`_graph_steps`, a closed form on each model) and its sums over points
(`_run_sum`, one step a run of equal displacements)."""

import bisect
import math
import numbers
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
    _compose_mats,
    _generator_map,
    _mobius_image,
    apply_isometry,
    compose,
)
from .space import ModelSpace, PlanePoint, TreePoint, plane_distance
from .words import letters, word_key, word_levels

#: hard cap on the points a plane ball keeps, where hitting it aborts with
#: the ball's radius (an action that is not discrete would otherwise loop),
#: and on the points a read of a tree ball lists (`TreeBall._listable`)
ELEMENT_CAP = 2_000_000

#: the deepest plane ball float64 resolves: g(i) is off by a few eps (|ad| +
#: |bc|) <= eps cosh d(i, g i), as its imaginary part cancels ad against
#: bc; this radius (about 32.1) keeps that bound at 1e-2
PLANE_RADIUS_LIMIT = math.acosh(1e-2 / sys.float_info.epsilon)

#: a float64 displacement d(i, g i) within PLANE_RADIUS_LIMIT is off by at
#: most DRIFT cosh d: the few eps cosh d of g(i) above, at most 8 eps cosh d
#: on every sampled word of length <= 10 at L = 3.7 and 4 against exact
#: rational products, and the last bits of `plane_distance`
DRIFT = 8.0 * sys.float_info.epsilon


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
        """The `PlaneBall` within displacement T >= 0, grown from its own
        points: level k composes each word kept at level k - 1, in entry
        order, with each letter that may follow it, in alphabet order, so
        the entries are in canonical word order. A word is kept when its
        displacement is at most T + 1e-9. Each entry keeps its matrix,
        bitwise `action.isometry(word)`. A certified group is free, so
        distinct reduced words are distinct points, and no entry repeats
        another's point.

        The ball holds every word within T, and composes no word it can
        tell is beyond it. The certificate proves that a letter raises a
        reduced word's displacement by at least its `step_bound` s
        (`certify_ping_pong`). Read in float64, each displacement near T
        is off by at most E = DRIFT cosh T. So a prefix of a word read at d
        reads at most d + E - s + E < d once 2 E < s: every prefix of a
        kept word is kept. And a child of a word read at d reads at least
        d + s - 2 E, past T + 1e-9 once d > T + 1e-9 - s + 2 E: such a
        word is kept but not extended. A radius past PLANE_RADIUS_LIMIT,
        or where 2 E >= s (from T = 31.0 on at L = 1.8, where the ball
        would hold about 1e12 points), is refused. So is a ball past ELEMENT_CAP points, with
        its radius: a certified group keeps distinct points at least
        systole_bound apart, so only that cap bounds the search on an
        action the certificate does not describe."""
        cert = self.certificate
        if float(T) > PLANE_RADIUS_LIMIT:
            raise NumericalLimitError("plane ball radius %.6g beyond float64's %.4g"
                                      % (float(T), PLANE_RADIUS_LIMIT))
        drift = DRIFT * math.cosh(float(T))
        if not 2.0 * drift < cert.step_bound:
            raise NumericalLimitError(
                "plane ball radius %.6g: float64 displacements off by up to %.3g are not "
                "below half the certified step %.6g" % (float(T), drift, cert.step_bound))
        follow = {c: [(d, self.gen_map[d].mat) for d in self.alphabet if d != c.swapcase()]
                  for c in [*self.alphabet, ""]}
        reach = float(T) + 1e-9  # closed ball at the declared tolerance
        # a kept word past this has no child within reach
        parent_reach = reach - cert.step_bound + 2.0 * drift
        base = self.basepoint
        entries = [OrbitEntry("", base, 0.0, IDENTITY_PLANE)]
        z0, frontier = base.z, [("", IDENTITY_PLANE.mat)]
        while frontier:
            level = []
            for w, parent in frontier:
                for c, g in follow[w[-1:]]:
                    m = _compose_mats(parent, g)
                    z = _mobius_image(m, z0)
                    d = plane_distance(z0, z)
                    if d > reach:
                        continue
                    if len(entries) == ELEMENT_CAP:
                        raise CertificationError(
                            "a plane ball of radius %.6g holds more than %d points, the element "
                            "cap" % (float(T), ELEMENT_CAP))
                    entries.append(OrbitEntry(w + c, PlanePoint(z), d, PlaneIsometry(m)))
                    if d <= parent_reach:
                        level.append((w + c, m))
            frontier = level
        return PlaneBall(T, tuple(entries))


def tree_action(valence=4, edge_length=1, declared_delta=0.0, declared_codiameter=0.5):
    return TreeAction(ModelSpace.tree(valence, edge_length), declared_delta, declared_codiameter)


def schottky_action(desc, certificate, declared_delta=math.log(3.0), declared_codiameter=3.0):
    return PlaneAction(_generator_map(desc.generators), declared_delta, declared_codiameter,
                       certificate)


class OrbitEntry(namedtuple("OrbitEntry", "word point displacement isometry", defaults=(None,))):
    """The orbit point of a word g and its displacement d(x, g x). A
    plane entry from `enumerate_orbit_ball` also carries g's
    `PlaneIsometry`, its parent's matrix composed with its last letter,
    bitwise `action.isometry(word)`; a tree entry's isometry is None (its word is
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
    summed level by level, and a plain addition per run of one point, as
    every plane entry is."""
    total = 0.0
    for d, n in ball.runs():
        total = total + f(d) if n == 1 else _add_copies(total, f(d), n)
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
    """The orbit ball of a certified Schottky action within displacement
    `radius`: every reduced word whose float64 displacement is at most
    radius + 1e-9, as `entries` in canonical word order, one point each
    (`PlaneAction.orbit_ball`)."""

    def __init__(self, radius, entries):
        self.radius, self._entries = radius, entries
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
        every entry s in S, the nonidentity entries displaced by at most
        R + 1e-12, through the entries; -1 where no path reaches it
        (`check_generating`). In closed form, the fewest pieces of S that
        g's word splits into: where v is g's longest suffix in S and g = u
        v, steps(g) = steps(u) + 1, and -1 where g has no suffix in S or u
        is -1. In entry order, so u comes before g.

        Proof. As `PlaneAction.orbit_ball` shows from the certificate, the
        ball holds every reduced word read within its radius, and a proper
        prefix of a word reads below it, as d(x, w x) falls by at least
        `step_bound` and each read is off by at most E, 2 E < `step_bound`.
        A proper suffix v of s reads below s by the same margin: v^-1 is a
        proper prefix of s^-1, and d(x, v x) = d(x, v^-1 x). So S is closed
        under prefixes and proper suffixes, hence under subwords, and the
        ball under prefixes.
        - A split g = p_1 ... p_k into pieces of S is a path of k steps: p_1
          ... p_j is a prefix of g, so an entry, and the step p_j cancels
          nothing.
        - A path s_1 ... s_k to g gives a split into at most k pieces. In
          the free reduction of s_1 ... s_k a letter of the reduced s_j
          cancels only with a letter outside s_j, and then so do the letters
          of s_j between them; so s_j keeps a subword, in S or empty, and g
          is these subwords in order.
        - The greedy split is a fewest one, by induction on length. A split
          of g, its piece across the cut cut short, splits any prefix of g,
          so the fewest pieces f never rise on a prefix. A fewest split g =
          u' v' ends in v' in S, so v exists, |v'| <= |v|, u is a prefix of
          u', and f(u) + 1 <= f(u') + 1 = f(g).
        - g = p c, p its parent, has a longest suffix in S at most one letter
          longer than p's: cutting its last letter leaves a suffix of p in
          S. So the search for it runs down from there."""
        reach = float(R) + 1e-12
        steps = {e.word for e in self._entries if e.word and float(e.displacement) <= reach}
        dist, longest = {"": 0}, {"": 0}
        for e in self._entries[1:]:
            w = e.word
            k = longest[w[:-1]] + 1
            while k and w[-k:] not in steps:
                k -= 1
            longest[w] = k
            rest = dist[w[:-k]] if k else -1
            dist[w] = rest + 1 if rest >= 0 else -1
        return list(dist.values())

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
    the action's own ball (`TreeAction.orbit_ball`, `PlaneAction.orbit_ball`):
    a tree ball counts its levels; a plane ball extends only the words it
    keeps, which its ping-pong certificate proves reaches every word within
    T, and keeps at most ELEMENT_CAP points. A T that is not a finite
    real number, or is negative, is refused: a NaN reach would keep words
    until the cap."""
    _finite_real("ball radius", T)
    if T < 0:
        raise ParameterError("ball radius must be nonnegative")
    return action.orbit_ball(T)


def _finite_real(name, x):
    """Refuse x unless it is a finite real number, a bool not being one: a
    string or None fails the first comparison with a TypeError, and a NaN
    passes or fails every bound vacuously."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise ParameterError("%s must be a real number, got %r" % (name, x))
    if x != x or x in (math.inf, -math.inf):
        raise ParameterError("%s must be finite, got %s" % (name, x))


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
    order, and only then are the ball's words listed. A threshold that is
    not a finite real number is refused.
    """
    theo = 2.0 * action.declared_codiameter + 72.0 * action.declared_delta
    if threshold is None:
        threshold = theo
    _finite_real("threshold", threshold)
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
    listed only for a failure's witness. An R that is not a finite real
    number is refused."""
    _finite_real("R", R)
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
