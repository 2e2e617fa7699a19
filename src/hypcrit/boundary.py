"""Boundary approximants, visual metrics, shadows, limit sets and the
Patterson-Sullivan proxy measures, with Ahlfors-regularity and
quasiconformality audits.

Every model-dependent decision sits in one rules object per model,
`_TreeRules` or `_PlaneRules`, with the same method names; `_rules`, the
one kind test of the module, picks it. The public functions keep what
both models share: argument checks, audit loops and counters.

Honesty conventions: tree boundary data is exact (words and rational
depths) and comparisons below the recorded truncation depth are refused,
never guessed; plane boundary products carry explicit error brackets and
every set-membership answer near a threshold is three-valued
(True / False / None for "unknown").

Plane boundary points are seen from the basepoint i, where the Gromov
product of two ray points at depth t and the distance from a point to a
ray have closed forms (`arrays.plane_ray_product`,
`arrays.plane_ray_distance` and their array forms); no ray point is built
for a product or a shadow test, and `ray_point`/`plane_dist_to_ray` are
the reference they are tested against. Only the plane rules import
`arrays` and numpy, where they run.

Tree boundary data is word combinatorics: a tree Patterson-Sullivan
measure is its levels, one weight each (`_TreeRules.measure`); a mass
counts each level's atom words by their common prefix with the centre
(`_prefix_counts`) and adds as many copies of its weight, with the bits
of a left-to-right loop over the atoms (`orbits._add_copies`); products
and shadow tests count units of `tree_grid` in integers. Plane masses apply
the scalar rules to the atom arrays (`_PlaneAtoms`) at once, summing
left to right. The `Atom`, `Fraction` and scalar forms are the tests'
reference.
"""

import bisect
import math
import random
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property
from itertools import accumulate

from .errors import DepthError, InsufficientDataError, MeasureError, NumericalLimitError, ParameterError
from .isometries import fixed_points
from .orbits import _add_copies, _run_sum
from .space import (
    TREE,
    Ray,
    TreePoint,
    _GridPoint,
    _geodesic_points,
    _grid_ray_points,
    _lcp,
    _on_grid,
    _path_distance,
    _tree_point,
    _tree_separation,
    busemann,
    plane_line_point,
    ray_points,
    tree_grid,
)
from .words import _ORDER, compose_words, invert_word, is_word_over, reduced_word_at


class TreeBoundary:
    """A truncated tree boundary point: ``word`` is the known prefix of the
    boundary word, and its length the ``depth``."""

    __slots__ = ("word", "depth")

    def __init__(self, word):
        if len(word) < 1:
            raise ValueError("tree boundary approximant needs depth >= 1")
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "depth", len(word))

    def __setattr__(self, name, value):
        raise AttributeError("TreeBoundary is immutable")

    def __eq__(self, other):
        if other.__class__ is not TreeBoundary:
            return NotImplemented
        return self.word == other.word

    def __hash__(self):
        return hash(self.word)


#: a truncated plane boundary point: ``coord`` is the ideal endpoint (a
#: real number or math.inf), ``word`` the group element that produced it
#: and ``depth`` that element's displacement, the scale down to which the
#: approximant is trusted
PlaneBoundary = namedtuple("PlaneBoundary", "coord word depth", defaults=("", 8.0))


def _rules(action):
    return (_TreeRules if action.space.kind == TREE else _PlaneRules)(action)


def _tree_product(z, zp, m):
    """The tree boundary product, k edge_length, in units of 1/m edge;
    DepthError where the common-prefix length k reaches a truncation."""
    k = _lcp(z.word, zp.word)
    if k >= min(z.depth, zp.depth):
        raise DepthError(
            "common prefix reaches truncation depth %d; deepen the approximants" % k
        )
    return k * m


VisualParams = namedtuple("VisualParams", "a")


def visual_distance(params, action, z, zp):
    """Certified bracket for the visual distance of two boundary points.

    Tree (delta = 0): e^{-a (z,z')_x} itself is an ultrametric, so lower =
    upper. Plane: the bracket [(1/V) e^{-a (p + err)}, V e^{-a p}] with
    V = e^{a delta} from the standard-metric comparison, valid only while
    3 - 2 e^{a delta} > 0.
    """
    a = params.a
    delta = action.declared_delta
    if a <= 0:
        raise ValueError("visual parameter a must be positive")
    if delta > 0 and a >= math.log(2.0) / (2.0 * delta):
        raise ValueError("a outside the admissible range (0, log2/(2 delta))")
    return _rules(action).visual(a, z, zp)


def generalized_ball_contains(action, z, rho, zp):
    """z' in B(z, rho) = {(z, z')_x > log(1/rho)}; three-valued on the plane.

    Returns True, False, or None when the product's error bracket straddles
    the threshold.
    """
    return _rules(action).ball_contains(z, _threshold(rho), zp)


def _threshold(rho):
    """log(1/rho), the product threshold of the ball of radius rho in (0, 1]."""
    if not (0 < rho <= 1):
        raise ParameterError("radius must be in (0, 1], got %r" % rho)
    return math.log(1.0 / rho)


def shadow_contains(action, y, r, z):
    """Whether the ray from the basepoint toward z meets the open ball B(y, r).

    Rays are unique in both models; the minimum ray-to-point distance is
    computed in closed form: on the tree in whole grid units (`_on_grid`),
    as depth(y) less its separation from the proxy vertex z.word, on the
    plane by `plane_ray_distance`. DepthError where y lies below the proxy
    on the shared path, so that a deeper word could bring it closer.
    """
    if r <= 0:
        raise ValueError("shadow radius must be positive")
    return _rules(action).shadow_contains(y, r, z)


#: ball_in_shadow is (tested, violations); shadow_in_ball and
#: visual_comparison are (tested, violations, undecided); pack_cov_rows is
#: ((T, pack_star, cov, ok), ...)
ShadowBallReport = namedtuple(
    "ShadowBallReport", "passed ball_in_shadow shadow_in_ball visual_comparison pack_cov_rows"
)


def check_shadow_ball_lemma(action, samples, ts, seed=0, pair_count=200):
    """Audit of the shadow/ball comparison package on boundary samples.

    Four sub-checks, all in the honest direction of their inequalities:
    (1) every certified member of B(z, e^{-T}) lies in the shadow of the
    ball of radius 7 delta around the point at distance T on the ray to z;
    (2) every sampled member of a shadow Shad(xi_T, r) lies in
    B(z, e^{-T + r}) (undecidable memberships are counted, not failed);
    (3) the visual-distance bracket at a = 0.2 / delta (1 on trees)
    sandwiches generalized balls with the constant V = e^{a delta}; (4)
    Pack*(scale e^{-T + delta}) <= Cov(scale e^{-T}), exactly via
    cylinder counts on the tree and via a conservative packing lower bound
    against a greedy covering upper bound on the plane.

    An audit that could test nothing is refused (ValueError): no scale T,
    pair_count below 1, or fewer than 2 samples to draw a pair from; a T
    whose ball radius e^{-T} leaves (0, 1] is refused as a ParameterError.

    Queries go to one rules object, with ray points in its own form and
    a = 0.2 / delta in the visual range (2 a delta = 0.4 < log 2).
    """
    if not ts:
        raise ValueError("shadow-ball audit needs at least one scale T")
    if pair_count < 1:
        raise ValueError("shadow-ball audit needs pair_count >= 1, got %r" % pair_count)
    if len(samples) < 2:
        raise ValueError("shadow-ball audit needs at least 2 boundary samples, got %d"
                         % len(samples))
    rng = random.Random(seed)
    rules = _rules(action)
    delta = action.declared_delta
    r_shadow = 7.0 * delta if delta > 0 else 1e-9
    r_out = max(1.0, r_shadow)
    bis = [0, 0]
    sib = [0, 0, 0]
    vis = [0, 0, 0]
    params = VisualParams(0.2 / delta if delta > 0 else 1.0)
    V = math.exp(params.a * delta)
    ray_points_to = rules.ray_points_to(ts)
    exceeds = rules.exceeds([T + 1e-9 for T in ts])
    out_thrs = [_threshold(min(math.exp(-T + r_out), 1.0)) for T in ts]
    rhos = [math.exp(-T) for T in ts]
    thrs = [_threshold(rho) for rho in rhos]
    for _ in range(pair_count):
        z, zp = rng.sample(samples, 2)
        try:
            beyond = exceeds(z, zp)
        except DepthError:
            continue
        for xi, deep, out_thr, rho, thr in zip(ray_points_to(z), beyond, out_thrs, rhos, thrs):
            if xi is None:
                continue
            if deep:
                bis[0] += 1
                if not rules.ray_shadow(xi, r_shadow, zp):
                    bis[1] += 1
            if rules.ray_shadow(xi, r_out, zp):
                try:
                    m = rules.ball_contains(z, out_thr, zp)
                except DepthError:
                    m = None
                sib[0] += 1
                if m is None:
                    sib[2] += 1
                elif not m:
                    sib[1] += 1
            # visual bracket against the generalized ball at radius e^{-T}
            lo_d, hi_d = rules.visual(params.a, z, zp)
            try:
                m = rules.ball_contains(z, thr, zp)
            except DepthError:
                m = None
            vis[0] += 1
            if hi_d < rho**params.a / V - 1e-12:
                if m is False:
                    vis[1] += 1
                elif m is None:
                    vis[2] += 1
            if m is True and lo_d > V * rho**params.a + 1e-12:
                vis[1] += 1
    rows = rules.pack_cov(samples, ts)
    passed = bis[1] == 0 and sib[1] == 0 and vis[1] == 0 and all(r[3] for r in rows)
    return ShadowBallReport(passed, tuple(bis), tuple(sib), tuple(vis), tuple(rows))


# ---------------------------------------------------------------------------
# limit set and hull sampling


def limit_set_sample(action, ball, min_displacement):
    """Boundary approximants accumulated by the orbit, as a sequence; a
    caller that keeps the first few slices it.

    Tree: deep entry words read as truncated boundary words, in a
    `_LevelItems` that builds each approximant, and its word, from its
    index when it is read: a caller that samples a few builds a few, and
    the ball's `levels` are never listed. Plane: attracting fixed points
    of the entries' isometries (hyperbolic words only), tagged with the
    producing word, deduplicated at 1e-9, in a list.
    """
    if float(ball.radius) < float(min_displacement):
        raise InsufficientDataError("ball shallower than min_displacement")
    sample = _rules(action).limit_set_sample(ball, float(min_displacement))
    if not sample:
        raise InsufficientDataError("no entries deep enough")
    return sample


def _plane_entry_boundary(entry):
    """The attracting fixed point of a plane orbit entry's isometry (the
    matrix its BFS level composed) as a boundary approximant, or None when
    the isometry is not hyperbolic (it then fixes no boundary direction)."""
    iso = entry.isometry
    if abs(iso.trace) <= 2.0 + 1e-12:
        return None
    _, att = fixed_points(iso)
    return PlaneBoundary(att, entry.word, float(entry.displacement))


def qc_hull_sample(action, limit_samples, pair_count, seed=0):
    """Points along geodesic lines joining random pairs of limit points.

    On the tree a pair n edges apart gets steps = min(8, n + 1) splits:
    the points at d i/steps, i = 0 .. steps, of the geodesic between the
    two vertices, placed by the grid kernel with an edge of `steps` units,
    where every split is a whole number of units. On the plane a pair gets
    8 points evenly spread over arclengths -10 .. 10 of its line.
    """
    if len(limit_samples) < 2:
        raise ValueError("need at least 2 limit points")
    rng = random.Random(seed)
    rules = _rules(action)
    out = []
    for _ in range(pair_count):
        out += rules.hull_points(*rng.sample(limit_samples, 2))
    return out


# ---------------------------------------------------------------------------
# Patterson-Sullivan proxy measures


#: an orbit point's share of a measure; `boundary` is its boundary
#: approximant when projected
Atom = namedtuple("Atom", "word point displacement weight boundary", defaults=(None,))


class AtomicMeasure:
    """A normalized atomic measure: its `atoms` in orbit-entry order, the
    boundary atoms among them, and their `arrays`, each built on first
    use. A tree Patterson-Sullivan measure holds `_LevelItems` of atoms and
    its `boundary_levels` and `boundary_total` (`_TreeRules.measure`)."""

    def __init__(self, atoms, s, truncation_T):
        self.atoms = atoms
        self.s = s
        self.truncation_T = truncation_T

    @cached_property
    def boundary_atoms(self):
        return [a for a in self.atoms if a.boundary is not None]

    @cached_property
    def arrays(self):
        """Boundary atoms of a plane measure as arrays, in atom order."""
        return _PlaneAtoms(self.boundary_atoms)


class _LevelItems(Sequence):
    """The items of levels of F_rank's reduced words, given as (k, count)
    pairs with count the size of level k, in level order. Each item is
    built when it is read, as make(k, w) for the word w of level k that
    `reduced_word_at` computes from the item's index, so no level is ever
    listed."""

    def __init__(self, rank, levels, make):
        self.rank, self.levels, self.make = rank, levels, make
        self.ends = list(accumulate(n for _, n in levels))

    def __len__(self):
        return self.ends[-1] if self.ends else 0

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i = range(len(self))[i]  # IndexError out of range
        li = bisect.bisect_right(self.ends, i)
        k = self.levels[li][0]
        return self.make(k, reduced_word_at(self.rank, k, i - (self.ends[li - 1] if li else 0)))


class _PlaneAtoms:
    """Endpoint coordinates (math.inf allowed), depths and weights of plane
    boundary atoms, and total, the weights added left to right."""

    def __init__(self, atoms):
        import numpy as np

        self.coord = np.array([a.boundary.coord for a in atoms], dtype=float)
        self.depth = np.array([a.boundary.depth for a in atoms], dtype=float)
        self.weight = np.array([a.weight for a in atoms], dtype=float)
        self.total = _ordered_sum(self.weight)


def _ordered_sum(values):
    """values[0] + values[1] + ... added left to right (0.0 when empty)."""
    return float(values.cumsum()[-1]) if len(values) else 0.0


def _prefix_counts(rank, word, ell):
    """[c_0 .. c_n], n = min(len(word), ell): c_j counts the reduced words of
    length ell over F_rank sharing exactly j first letters with `word`,
    P_j - P_(j+1) (c_n = P_n) for P_j those beginning with word[:j]: with
    q = 2 rank, P_0 = q (q-1)^(ell-1) (1 at ell = 0), P_j = (q-1)^(ell-j)
    while word[:j] is a reduced word over the alphabet, then 0. So for a
    reduced word, c_0 = (q-1)^ell if n > 0, c_j = (q-2)(q-1)^(ell-j-1) for
    0 < j < n and c_n = (q-1)^(ell-n)."""
    q, n = 2 * rank, min(len(word), ell)
    P = [q * (q - 1) ** (ell - 1) if ell else 1] + [0] * n
    for j in range(1, n + 1):
        c = word[j - 1]
        if _ORDER.get(c, q) >= q or j > 1 and c == word[j - 2].swapcase():
            break
        P[j] = (q - 1) ** (ell - j)
    return [P[j] - P[j + 1] for j in range(n)] + [P[n]]


def patterson_sullivan_atoms(action, ball, s):
    """Normalized e^{-s d(x, gx)}-weighted orbit Dirac masses.

    Requires s strictly above a rough growth estimate of the ball (below it
    the truncated sum is not a stable proxy for the limit measure). Atoms
    at displacement >= (2/3) of the ball radius also carry a boundary
    projection for reporting boundary masses. A tree measure is built from
    the ball's levels (`_TreeRules.measure`), with no object per atom.
    """
    if s <= 0:
        raise MeasureError("s must be positive")
    shells = ball.count_by_shell
    if len(shells) >= 3 and shells[-1][1] > shells[-2][1] > 1:
        h_rough = (math.log(shells[-1][1]) - math.log(shells[-2][1])) / (
            shells[-1][0] - shells[-2][0]
        )
    else:
        h_rough = 0.0
    if s <= h_rough:
        raise MeasureError(
            "s = %.4g is not above the rough growth rate %.4g; the truncated "
            "sum is unstable (the limit construction sends s down to the "
            "critical exponent along a sequence, always from above)" % (s, h_rough)
        )
    return _rules(action).measure(ball, s, 2.0 * float(ball.radius) / 3.0)


def ball_mass(action, measure, z, rho):
    """Boundary mass of the generalized ball B(z, rho).

    Conditional on atoms that resolve the scale: an atom trusted down to
    scale e^{-depth} cannot locate any ball of radius rho < e^{-depth}, so
    at scale rho the population is first restricted to atoms with
    depth >= log(1/rho) and renormalized there; remaining per-ball
    undecidable memberships are also dropped from the denominator. Returns
    (mass, decided_fraction) or (None, 0.0) when nothing is decidable.

    Membership follows generalized_ball_contains on every atom at once:
    inside above the threshold, known below it unless the tree word is
    truncated there, the plane bracket straddles it or the plane endpoints
    coincide.
    """
    inside, den, total = _rules(action).ball_sums(measure, z, _threshold(rho))
    if den == 0.0:
        return None, 0.0
    return inside / den, den / total if total else 0.0


def shadow_mass(action, measure, y, r):
    """Boundary mass of the shadow of B(y, r) seen from the basepoint."""
    if r <= 0:
        raise ValueError("shadow radius must be positive")
    inside, den = _rules(action).shadow_sums(measure, y, r)
    return inside / den if den else None


# ---------------------------------------------------------------------------
# audits


class AhlforsReport(namedtuple(
    "AhlforsReport", "A_lower A_upper step1_bound step1_passed shadow_Q shadow_R0 samples skipped"
)):
    __slots__ = ()

    @property
    def passed(self):
        return self.step1_passed


def check_ahlfors_regularity(action, measure, h, centers, scales):
    """Ahlfors-regularity audit of the boundary measure.

    For sampled (center z, radius rho) the ratio mu(B(z, rho)) / rho^h is
    recorded; A_upper must respect the explicit one-sided bound
    e^{h (55 delta + 3 D)}. The shadow lower bound at radius
    R0 = log2/h + 55 delta + 3 D + 5 delta is checked with Q as a measured
    free parameter: the smallest Q making every sampled inequality
    mu(Shad_x(gx, R0)) >= (1/(2Q)) e^{-h d(x, gx)} hold is reported, over
    about 25 boundary atoms spread evenly in atom order.
    """
    delta, D = action.declared_delta, action.declared_codiameter
    A_upper = 0.0
    A_lower = math.inf
    used = skipped = 0
    for z in centers:
        for rho in scales:
            mass, _ = ball_mass(action, measure, z, rho)
            if mass is None:
                skipped += 1
                continue
            try:
                ratio = mass / rho**h
            except (OverflowError, ZeroDivisionError):
                raise NumericalLimitError("rho^h at rho = %.6g, h = %.6g leaves float64's range"
                                          % (rho, h)) from None
            used += 1
            A_upper = max(A_upper, ratio)
            if mass > 0:
                A_lower = min(A_lower, ratio)
    if used == 0:
        raise InsufficientDataError("no decidable (center, scale) samples")
    step1 = math.exp(h * (55.0 * delta + 3.0 * D))
    R0 = math.log(2.0) / h + 55.0 * delta + 3.0 * D + 5.0 * delta
    Q = 1.0
    deep = measure.boundary_atoms  # every boundary atom carries a word
    for a in deep[:: max(1, len(deep) // 25)]:
        m = shadow_mass(action, measure, a.point, R0)
        if not m:
            skipped += 1
            continue
        Q = max(Q, math.exp(-h * a.displacement) / (2.0 * m))
    return AhlforsReport(
        A_lower, A_upper, step1, A_upper <= step1 + 1e-9, Q, R0, used, skipped
    )


QuasiconformalityReport = namedtuple("QuasiconformalityReport", "Q cells_used cells_skipped g_word")


def check_quasiconformality(action, measure, h, g_word, cells):
    """Measured quasiconformality constant of the boundary measure.

    cells: list of (z, rho) boundary balls. For each cell C the mass ratio
    mu(g^{-1} C) / mu(C) is compared against the conformal factor
    e^{h (B_z(x,x) - B_z(x,gx))} = e^{-h B_z(x, gx)}; the smallest Q
    covering all decidable nonzero cells is returned (Q is an output of the
    audit, never an assumed theoretical value). Zero-mass or undecidable
    cells are skipped and counted. On the plane mu(g^{-1} C) is the
    ball_mass of C under the measure pushed by g, built once per audit.

    g_word must be a nonempty reduced word over the action's alphabet
    (ValueError otherwise, before any cell is measured): the empty word
    would compare the measure with itself.
    """
    alphabet = action.alphabet
    if not is_word_over(g_word, alphabet):
        raise ValueError("g_word %r is not a nonempty reduced word over %s"
                         % (g_word, "".join(alphabet)))
    rules = _rules(action)
    gx = action.orbit_point(g_word)
    pulled_mass = rules.pulled_mass(measure, g_word)
    Q = 1.0
    used = skipped = 0
    for z, rho in cells:
        m, _ = ball_mass(action, measure, z, rho)
        try:
            mpull = pulled_mass(z, rho)
        except DepthError:
            skipped += 1
            continue
        if not m or not mpull:
            skipped += 1
            continue
        ray, horizon = rules.cell_ray(z)
        bus, _ = busemann(action.space, ray, gx, horizon)
        factor = math.exp(-h * float(bus))
        ratio = mpull / m
        Q = max(Q, ratio / factor, factor / ratio)
        used += 1
    if used == 0:
        raise InsufficientDataError("no usable cells for the quasiconformality audit")
    return QuasiconformalityReport(Q, used, skipped, g_word)


def _pushed_measure(action, measure, g_word):
    """The plane measure whose boundary atoms are pushed by g: its
    ball_mass of B(z, rho) is mu(g^{-1} B(z, rho)), under the same depth
    filter as mu(B(z, rho))."""
    iso = action.isometry(g_word)

    def push(b):
        return PlaneBoundary(iso.boundary_apply(b.coord), b.word, b.depth)

    atoms = tuple(a._replace(boundary=push(a.boundary)) for a in measure.boundary_atoms)
    return AtomicMeasure(atoms, measure.s, measure.truncation_T)


def tree_cylinder_cells(action, depth):
    """All depth-n cylinders, n >= 1, as (center approximant, radius)
    cells. A depth below 1 is refused (ParameterError): the one depth-0
    cylinder is the whole boundary, and it has no approximant."""
    from .words import reduced_words_of_length

    if depth < 1:
        raise ParameterError("cylinder depth must be >= 1, got %d" % depth)
    rho = cylinder_scale(action, depth)
    return [
        (TreeBoundary(w), rho) for w in reduced_words_of_length(action.rank, depth)
    ]


def cylinder_scale(action, depth):
    """Radius whose generalized ball is exactly the depth-n cylinder."""
    return math.exp(-(depth * float(action.space.edge_length) - 1e-9))


# ---------------------------------------------------------------------------
# the rules of each model


class _TreeRules:
    """The tree's boundary rules: exact word combinatorics on `tree_grid`."""

    def __init__(self, action):
        self.action, self.space = action, action.space

    def product(self, z, zp):
        """(z, z')_x and its error 0: common-prefix length times edge length;
        DepthError where the prefix runs into a truncation, since the true
        product could then exceed what the approximants certify."""
        L = self.space.edge_length
        return _tree_product(z, zp, 1) * L, L * 0

    def exceeds(self, cuts):
        """The function (z, z') -> [p - err > c for c in cuts] for (p, err)
        = product(z, z'), in whole units of `tree_grid`: k m units exceed c
        iff they exceed floor(c D), exactly from c's integer ratio."""
        D, m = tree_grid(self.space)
        floors = [num * D // den for num, den in (float(c).as_integer_ratio() for c in cuts)]

        def exceeds(z, zp):
            units = _tree_product(z, zp, m)
            return [units > f for f in floors]

        return exceeds

    def visual(self, a, z, zp):
        # k m / D is the float of the exact product k edge_length
        D, m = tree_grid(self.space)
        v = math.exp(-a * (_tree_product(z, zp, m) / D))
        return v, v

    def ball_contains(self, z, thr, zp):
        k = _lcp(z.word, zp.word)
        if k * float(self.space.edge_length) > thr:
            return True  # certified even at truncation: product >= k*L
        if k < min(z.depth, zp.depth):
            return False  # product exactly k*L <= threshold
        raise DepthError("membership undecidable at truncation depth %d" % k)

    def shadow_contains(self, y, r, z):
        D, m, (g,) = _on_grid(self.space, [y])
        return self.ray_shadow((D, m, g), r, z)

    def ray_shadow(self, p, r, z):
        """shadow_contains at p = (D, m, g), the form of `ray_points_to`
        and `_on_grid`: g on a grid of D units per length, m per edge."""
        D, m, g = p
        sep = _tree_separation(m, g, _GridPoint(z.word, 0, None))
        dy = len(g.word) * m + g.offset
        if sep >= len(z.word) * m and dy > sep:
            raise DepthError("shadow test needs a deeper boundary word")
        return (dy - sep) / D < r

    def ray_points_to(self, ts):
        """The function taking z to the points at the arclengths ts on the
        ray from the basepoint toward z, each `ray_point` as (D, m, g), or
        None past the proxy vertex. The rays run from the root on an integer
        grid holding every t: that of `tree_grid`, refined where a t is off it."""
        if any(t < 0 for t in ts):
            raise ValueError("ray parameter must be nonnegative")
        D, edge = tree_grid(self.space)
        refine = math.lcm(*((Fraction(t) * D).denominator for t in ts))
        D, edge = D * refine, edge * refine
        grid_ts = [int(Fraction(t) * D) for t in ts]
        root = _GridPoint("", 0, None)
        return lambda z: [
            (D, edge, _grid_ray_points(edge, root, _GridPoint(z.word, 0, None), [t])[0])
            if t <= len(z.word) * edge else None
            for t in grid_ts
        ]

    def pack_cov(self, samples, ts):
        k, delta = self.action.rank, self.action.declared_delta
        L = float(self.space.edge_length)
        rows = []
        for T in ts:
            m_cov = int(math.floor(T / L + 1e-9)) + 1
            cov = 2 * k * (2 * k - 1) ** (m_cov - 1)
            m_pack = int(math.floor((T - delta) / L + 1e-9)) + 1
            pack = 2 * k * (2 * k - 1) ** (m_pack - 1)
            rows.append((T, pack, cov, pack <= cov))
        return rows

    def limit_set_sample(self, ball, min_displacement):
        disp = ball.level_displacements
        deep = [(k, n) for k, n in enumerate(ball.sizes) if k and disp[k] >= min_displacement]
        return _LevelItems(ball.rank, deep, lambda k, w: TreeBoundary(w))

    def hull_points(self, z1, z2):
        p1, p2 = _GridPoint(z1.word, 0, None), _GridPoint(z2.word, 0, None)
        n = _path_distance(1, p1, p2)
        if n == 0:
            return []
        steps = min(8, n + 1)
        unit = self.space.edge_length / steps
        pts = _geodesic_points(steps, p1, p2, [n * i for i in range(steps + 1)])
        return [_tree_point(g, unit) for g in pts]

    def measure(self, ball, s, thresh):
        """The Patterson-Sullivan measure of a tree ball from its levels.

        Every word of level k is displaced by k edge_length, so each level
        has one weight e^{-s float(k L)} / total, the total adding those
        numbers over the orbit entries left to right (`_run_sum`). The
        levels from `deep` on, projected to the boundary, are kept as
        (level, weight) pairs with their weights' sum; no level's words are
        listed, whatever the ball's size.
        """
        sizes = ball.sizes
        disp = ball.level_displacements
        total = _run_sum(ball, lambda d: math.exp(-s * d))
        weight = [math.exp(-s * d) / total for d in disp]
        deep = next((k for k in range(1, len(disp)) if disp[k] >= thresh - 1e-12), len(disp))
        levels = list(enumerate(sizes))

        def atom(k, w):
            return Atom(w, TreePoint(w), disp[k], weight[k], TreeBoundary(w) if k >= deep else None)

        measure = AtomicMeasure(_LevelItems(ball.rank, levels, atom), s, float(ball.radius))
        measure.boundary_atoms = _LevelItems(ball.rank, levels[deep:], atom)
        measure.boundary_levels = [(k, weight[k]) for k, _ in levels[deep:]]
        measure.boundary_total = 0.0
        for k, n in levels[deep:]:
            measure.boundary_total = _add_copies(measure.boundary_total, weight[k], n)
        return measure

    def ball_sums(self, measure, z, thr):
        """ball_contains summed left to right over the boundary atoms: (mass
        inside, decided mass, total). An atom of level ell sharing j letters
        with z is inside iff j L > thr, decided iff ell L >= thr - 1e-12 (it
        resolves the scale) and it is inside or j < min(|z|, ell)."""
        L = float(self.space.edge_length)
        inside = den = 0.0
        for ell, w in measure.boundary_levels:
            if ell * L >= thr - 1e-12:
                counts = list(enumerate(_prefix_counts(self.action.rank, z.word, ell)))
                inside = _add_copies(inside, w, sum(c for j, c in counts if j * L > thr))
                top = min(z.depth, ell)
                den = _add_copies(den, w, sum(c for j, c in counts if j * L > thr or j < top))
        return inside, den, measure.boundary_total

    def shadow_sums(self, measure, y, r):
        """shadow_contains summed left to right over the boundary atoms: (mass
        inside, decided mass). In `_on_grid` units an atom word sharing j
        letters with y's word is j m from y's root path, or y's depth where
        it shares one more with y's word and direction, running along y's edge."""
        D, m, (g,) = _on_grid(self.space, [y])
        dy = len(g.word) * m + g.offset
        seps = [j * m for j in range(len(g.word) + 1)] + [dy]
        inside = den = 0.0
        for ell, w in measure.boundary_levels:
            c_in = c_den = 0
            for sep, c in zip(seps, _prefix_counts(self.action.rank, g.word + (g.direction or ""), ell)):
                if sep < ell * m or dy <= sep:  # as in ray_shadow
                    c_den += c
                    c_in += c if (dy - sep) / D < r else 0
            inside, den = _add_copies(inside, w, c_in), _add_copies(den, w, c_den)
        return inside, den

    def pulled_mass(self, measure, g_word):
        """The function (z, rho) -> mu(g^{-1} B(z, rho)), at the radius that
        makes the pulled-back cell exactly the image cylinder."""
        inverse = invert_word(g_word)
        L = float(self.space.edge_length)

        def pulled_mass(z, rho):
            w = compose_words(inverse, z.word)
            if not w:
                raise DepthError("pullback cancels the whole approximant")
            rho = min(rho * math.exp(-(len(w) - len(z.word)) * L), 1.0)
            return ball_mass(self.action, measure, TreeBoundary(w), rho)[0]

        return pulled_mass

    def cell_ray(self, z):
        deep_word = z.word + z.word[-1] * 8
        return Ray(self.action.basepoint, deep_word), (len(deep_word) - 1) * self.space.edge_length


class _PlaneRules:
    """The plane's boundary rules: closed forms for rays from i, bracketed."""

    def __init__(self, action):
        from . import arrays  # the closed forms, and numpy: plane rules only

        self.action, self.space, self.arrays = action, action.space, arrays

    def product(self, z, zp):
        """(z, z')_x and its error bound: the product of the points at depth
        t on the rays toward the two endpoints (`plane_ray_product`), and
        the hyperbolicity constant capped by the measured gap to depth
        t - 2, so that brackets shrink as approximants deepen."""
        if z.coord == zp.coord:
            raise DepthError("identical plane endpoints: product is unbounded")
        t = max(min(z.depth, zp.depth), 4.0)
        value = self.arrays.plane_ray_product(z.coord, zp.coord, t)
        gap = abs(value - self.arrays.plane_ray_product(z.coord, zp.coord, max(t - 2.0, 1.0)))
        delta = self.action.declared_delta
        return value, min(delta if delta > 0 else math.inf, gap + 1e-6)

    def exceeds(self, cuts):
        def exceeds(z, zp):
            p, err = self.product(z, zp)
            return [p - err > c for c in cuts]

        return exceeds

    def visual(self, a, z, zp):
        V = math.exp(a * self.action.declared_delta)
        if 3.0 - 2.0 * V <= 0:
            raise ValueError("standard-metric constant 3 - 2 e^{a delta} not positive")
        p, err = self.product(z, zp)
        return math.exp(-a * (p + err)) / V, V * math.exp(-a * p)

    def ball_contains(self, z, thr, zp):
        p, err = self.product(z, zp)
        if p - err > thr:
            return True
        if p + err <= thr:
            return False
        return None

    def shadow_contains(self, y, r, z):
        return self.arrays.plane_ray_distance(y.z, z.coord) < r

    ray_shadow = shadow_contains

    def ray_points_to(self, ts):
        return lambda z: ray_points(self.space, Ray(self.action.basepoint, z.coord), ts)

    def pack_cov(self, samples, ts):
        delta = self.action.declared_delta
        pts = samples[: min(len(samples), 20)]
        rows = []
        for T in ts:
            chosen = []
            for i, z in enumerate(pts):
                ok = True
                for j in chosen:
                    try:
                        p, err = self.product(z, pts[j])
                    except DepthError:
                        ok = False
                        break
                    if p + err > T - 2.0 * delta:
                        ok = False
                        break
                if ok:
                    chosen.append(i)
            pack = len(chosen)
            rho = math.exp(-T)
            covered = [False] * len(pts)
            cov = 0
            for i, z in enumerate(pts):
                if covered[i]:
                    continue
                cov += 1
                covered[i] = True
                for j in range(len(pts)):
                    if covered[j]:
                        continue
                    try:
                        if generalized_ball_contains(self.action, z, rho, pts[j]) is True:
                            covered[j] = True
                    except DepthError:
                        pass
            rows.append((T, pack, cov, pack <= cov))
        return rows

    def limit_set_sample(self, ball, min_displacement):
        sample, seen = [], set()
        for e in ball.entries:
            if not e.word or float(e.displacement) < min_displacement:
                continue
            b = _plane_entry_boundary(e)
            if b is None:
                continue
            key = "inf" if b.coord == math.inf else round(b.coord / 1e-9)
            if key not in seen:
                seen.add(key)
                sample.append(b)
        return sample

    def hull_points(self, z1, z2):
        if z1.coord == z2.coord:
            return []
        x = self.action.basepoint
        return [plane_line_point(z1.coord, z2.coord, x, -10.0 + 20.0 * (i + 0.5) / 8) for i in range(8)]

    def measure(self, ball, s, thresh):
        total = _run_sum(ball, lambda d: math.exp(-s * d))
        atoms = []
        for e in ball.entries:
            w = math.exp(-s * float(e.displacement)) / total
            b = None
            if e.word and float(e.displacement) >= thresh - 1e-12:
                b = _plane_entry_boundary(e)
            atoms.append(Atom(e.word, e.point, float(e.displacement), w, b))
        return AtomicMeasure(tuple(atoms), s, float(ball.radius))

    def ball_sums(self, measure, z, thr):
        """ball_contains with `product` at every atom at once: undecided where
        the bracket straddles thr, the endpoints coincide (the scalar
        DepthError) or the atom does not resolve the scale."""
        import numpy as np

        atoms, products = measure.arrays, self.arrays.plane_ray_products
        t = np.maximum(np.minimum(z.depth, atoms.depth), 4.0)
        value = products(z.coord, atoms.coord, t)
        gap = np.abs(value - products(z.coord, atoms.coord, np.maximum(t - 2.0, 1.0)))
        delta = self.action.declared_delta
        err = np.minimum(delta if delta > 0 else math.inf, gap + 1e-6)
        inside = value - err > thr
        known = (atoms.coord != z.coord) & (inside | (value + err <= thr))
        decided = (atoms.depth >= thr - 1e-12) & known
        return _ordered_sum(atoms.weight[decided & inside]), _ordered_sum(atoms.weight[decided]), atoms.total

    def shadow_sums(self, measure, y, r):
        """shadow_contains on the atom arrays, every atom decided."""
        atoms = measure.arrays
        inside = self.arrays.plane_ray_distances(y.z, atoms.coord) < r
        return _ordered_sum(atoms.weight[inside]), atoms.total

    def pulled_mass(self, measure, g_word):
        pushed = _pushed_measure(self.action, measure, g_word)
        return lambda z, rho: ball_mass(self.action, pushed, z, rho)[0]

    def cell_ray(self, z):
        return Ray(self.action.basepoint, z.coord), 30.0
