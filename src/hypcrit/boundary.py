"""Boundary approximants, visual metrics, shadows, limit sets and the
Patterson-Sullivan proxy measures, with Ahlfors-regularity and
quasiconformality audits.

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
the reference they are tested against.

Tree boundary data is word combinatorics: a tree Patterson-Sullivan
measure is level arrays (`_tree_measure`), with one weight per level,
summed in the order of the orbit entries, so its bits are those of one
`Atom` per entry; tree products and shadow tests count whole units of
`tree_grid` in integers. The `Atom` and `Fraction` forms are the
reference of the tests.

Measures cache their boundary atoms as arrays, in atom order:
`AtomicMeasure._tree_atoms` (letter rows, also lexsorted, word lengths,
which are their depths, weights) and `AtomicMeasure._plane_atoms`
(endpoint coordinates, depths, weights). `ball_mass` and `shadow_mass`
apply the scalar membership rules of `generalized_ball_contains` and
`shadow_contains` to every atom at once, summing masked weights left to
right in atom order, and the scalar functions remain the reference they
are tested against.
"""

import bisect
import math
import random
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property
from itertools import accumulate

import numpy as np

from .arrays import (
    _level_rows,
    _word_rows,
    plane_ray_distance,
    plane_ray_distances,
    plane_ray_product,
    plane_ray_products,
)
from .errors import DepthError, InsufficientDataError, MeasureError
from .isometries import fixed_points
from .space import (
    PLANE,
    TREE,
    Ray,
    TreePoint,
    _GridPoint,
    _geodesic_points,
    _grid_ray_points,
    _lcp,
    _path_distance,
    _tree_point,
    _tree_separation,
    busemann,
    plane_line_point,
    ray_points,
    tree_grid,
)
from .words import _ORDER, compose_words, invert_word, reduced_word_at


class BoundaryApprox:
    """A truncated boundary point.

    Tree: ``word`` is the known prefix of the boundary word, ``depth`` its
    length. Plane: ``coord`` is the ideal endpoint (a real number or
    math.inf) and ``word`` records the group element that produced it;
    ``depth`` is the displacement of that element (the scale down to which
    the approximant is trusted).
    """

    __slots__ = ("kind", "word", "depth", "coord")

    def __init__(self, kind, word, depth, coord=None):
        if kind == TREE and depth < 1:
            raise ValueError("tree boundary approximant needs depth >= 1")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "coord", coord)

    def __setattr__(self, name, value):
        raise AttributeError("BoundaryApprox is immutable")

    def __eq__(self, other):
        if other.__class__ is not BoundaryApprox:
            return NotImplemented
        return (self.kind, self.word, self.depth, self.coord) == (
            other.kind, other.word, other.depth, other.coord)

    def __hash__(self):
        return hash((self.kind, self.word, self.depth, self.coord))


def tree_boundary(word):
    return BoundaryApprox(TREE, word, len(word))


def plane_boundary(coord, word="", depth=8.0):
    return BoundaryApprox(PLANE, word, depth, coord)


def boundary_ray(action, z):
    """Ray from the basepoint toward the boundary approximant."""
    if action.space.kind == TREE:
        return Ray(action.basepoint, z.word)
    return Ray(action.basepoint, z.coord)


def boundary_gromov_product(action, z, zp):
    """(z, z')_x extended to the boundary, with an error bound.

    Tree: exact common-prefix length times the edge length, error 0;
    refused when the prefix runs into a truncation (the true product could
    then exceed what the approximants can certify). Plane: Gromov product
    of the points at depth t on the rays toward the two endpoints, in
    closed form (`plane_ray_product`); the error bound is the hyperbolicity
    constant capped by the measured gap to depth t - 2 (brackets therefore
    shrink as approximants deepen).
    """
    space = action.space
    if space.kind == TREE:
        return _tree_product(z, zp, 1) * space.edge_length, space.edge_length * 0
    if z.coord == zp.coord:
        raise DepthError("identical plane endpoints: product is unbounded")
    t = max(min(z.depth, zp.depth), 4.0)
    value = plane_ray_product(z.coord, zp.coord, t)
    gap = abs(value - plane_ray_product(z.coord, zp.coord, max(t - 2.0, 1.0)))
    err = min(action.declared_delta if action.declared_delta > 0 else math.inf,
              gap + 1e-6)
    return value, err


def _tree_product(z, zp, m):
    """The tree boundary product, k edge_length, in units of 1/m edge;
    DepthError where the common-prefix length k reaches a truncation."""
    k = _lcp(z.word, zp.word)
    if k >= min(z.depth, zp.depth):
        raise DepthError(
            "common prefix reaches truncation depth %d; deepen the approximants" % k
        )
    return k * m


def _product_exceeds(action, cuts):
    """The function (z, z') -> [p - err > c for c in cuts] for (p, err) =
    boundary_gromov_product(action, z, z'). On the tree, in whole units
    of `tree_grid`: k m units exceed c iff they exceed floor(c D), exactly
    from c's integer ratio."""
    if action.space.kind != TREE:
        def exceeds(z, zp):
            p, err = boundary_gromov_product(action, z, zp)
            return [p - err > c for c in cuts]

        return exceeds
    D, m = tree_grid(action.space)
    floors = [num * D // den for num, den in (float(c).as_integer_ratio() for c in cuts)]

    def exceeds(z, zp):
        units = _tree_product(z, zp, m)
        return [units > f for f in floors]

    return exceeds


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
    if action.space.kind == TREE:
        # k m / D is the float of the exact product k edge_length
        D, m = tree_grid(action.space)
        v = math.exp(-a * (_tree_product(z, zp, m) / D))
        return v, v
    V = math.exp(a * delta)
    if 3.0 - 2.0 * V <= 0:
        raise ValueError("standard-metric constant 3 - 2 e^{a delta} not positive")
    p, err = boundary_gromov_product(action, z, zp)
    return math.exp(-a * (p + err)) / V, V * math.exp(-a * p)


def generalized_ball_contains(action, z, rho, zp):
    """z' in B(z, rho) = {(z, z')_x > log(1/rho)}; three-valued on the plane.

    Returns True, False, or None when the product's error bracket straddles
    the threshold.
    """
    if not (0 < rho <= 1):
        raise ValueError("radius must be in (0, 1]")
    thr = math.log(1.0 / rho)
    if action.space.kind == TREE:
        k = _lcp(z.word, zp.word)
        L = float(action.space.edge_length)
        if k * L > thr:
            return True  # certified even at truncation: product >= k*L
        if k < min(z.depth, zp.depth):
            return False  # product exactly k*L <= threshold
        raise DepthError("membership undecidable at truncation depth %d" % k)
    p, err = boundary_gromov_product(action, z, zp)
    if p - err > thr:
        return True
    if p + err <= thr:
        return False
    return None


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
    if action.space.kind == TREE:
        D, m, g = _on_grid(action.space, y)
        sep = _tree_separation(m, g, _GridPoint(z.word, 0, None))
        dy = len(g.word) * m + g.offset
        if sep >= len(z.word) * m and dy > sep:
            raise DepthError("shadow test needs a deeper boundary word")
        return (dy - sep) / D < r
    return plane_ray_distance(y.z, z.coord) < r


def _on_grid(space, y):
    """(D, m, g): the tree point y as the `_GridPoint` g on the grid of
    `tree_grid` (D units per length, m per edge), refined where y's offset
    is off it. k units are the float k / D, float(Fraction(k, D))."""
    D, m = tree_grid(space)
    den = y.offset.denominator
    refine = den // math.gcd(den, D)
    D, m = D * refine, m * refine
    return D, m, _GridPoint(y.word, y.offset.numerator * (D // den), y.direction)


def _base_ray_points(action, ts):
    """The function taking a boundary approximant z to the points at the
    arclengths ts on the ray from the basepoint toward z, each the point
    of `ray_point`, or None past a tree ray's proxy vertex. Tree rays run
    from the root on an integer grid holding every t: the grid of
    `tree_grid`, refined where a t is off it."""
    space = action.space
    if space.kind != TREE:
        return lambda z: ray_points(space, boundary_ray(action, z), ts)
    if any(t < 0 for t in ts):
        raise ValueError("ray parameter must be nonnegative")
    D, edge = tree_grid(space)
    refine = math.lcm(*((Fraction(t) * D).denominator for t in ts))
    D, edge = D * refine, edge * refine
    grid_ts = [int(Fraction(t) * D) for t in ts]
    root, unit = _GridPoint("", 0, None), Fraction(1, D)
    return lambda z: [
        _tree_point(_grid_ray_points(edge, root, _GridPoint(z.word, 0, None), [t])[0], unit)
        if t <= len(z.word) * edge else None
        for t in grid_ts
    ]


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
    """
    rng = random.Random(seed)
    space = action.space
    delta = action.declared_delta
    r_shadow = 7.0 * delta if delta > 0 else 1e-9
    r_out = max(1.0, r_shadow)
    bis = [0, 0]
    sib = [0, 0, 0]
    vis = [0, 0, 0]
    params = VisualParams(0.2 / delta if delta > 0 else 1.0)
    V = math.exp(params.a * delta)
    ray_points_to = _base_ray_points(action, ts)
    exceeds = _product_exceeds(action, [T + 1e-9 for T in ts])
    for _ in range(pair_count):
        z, zp = rng.sample(samples, 2)
        try:
            beyond = exceeds(z, zp)
        except DepthError:
            continue
        for T, xi, deep in zip(ts, ray_points_to(z), beyond):
            if xi is None:
                continue
            if deep:
                bis[0] += 1
                if not shadow_contains(action, xi, r_shadow, zp):
                    bis[1] += 1
            if shadow_contains(action, xi, r_out, zp):
                rho = min(math.exp(-T + r_out), 1.0)
                try:
                    m = generalized_ball_contains(action, z, rho, zp)
                except DepthError:
                    m = None
                sib[0] += 1
                if m is None:
                    sib[2] += 1
                elif not m:
                    sib[1] += 1
            # visual bracket against the generalized ball at radius e^{-T}
            rho = math.exp(-T)
            lo_d, hi_d = visual_distance(params, action, z, zp)
            try:
                m = generalized_ball_contains(action, z, rho, zp)
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
    rows = []
    if space.kind == TREE:
        k = action.rank
        L = float(space.edge_length)
        for T in ts:
            m_cov = int(math.floor(T / L + 1e-9)) + 1
            cov = 2 * k * (2 * k - 1) ** (m_cov - 1)
            m_pack = int(math.floor((T - delta) / L + 1e-9)) + 1
            pack = 2 * k * (2 * k - 1) ** (m_pack - 1)
            rows.append((T, pack, cov, pack <= cov))
    else:
        pts = samples[: min(len(samples), 20)]
        for T in ts:
            chosen = []
            for i, z in enumerate(pts):
                ok = True
                for j in chosen:
                    try:
                        p, err = boundary_gromov_product(action, z, pts[j])
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
                        if generalized_ball_contains(action, z, rho, pts[j]) is True:
                            covered[j] = True
                    except DepthError:
                        pass
            rows.append((T, pack, cov, pack <= cov))
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
    if action.space.kind == TREE:
        disp = ball.level_displacements
        deep = [
            (k, n) for k, n in enumerate(ball.sizes) if k and disp[k] >= float(min_displacement)
        ]
        sample = _LevelItems(ball.rank, deep, lambda k, w: tree_boundary(w))
    else:
        sample, seen = [], set()
        for e in ball.entries:
            if not e.word or float(e.displacement) < float(min_displacement):
                continue
            b = _plane_entry_boundary(e)
            if b is None:
                continue
            key = "inf" if b.coord == math.inf else round(b.coord / 1e-9)
            if key not in seen:
                seen.add(key)
                sample.append(b)
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
    return plane_boundary(att, entry.word, float(entry.displacement))


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
    space = action.space
    out = []
    for _ in range(pair_count):
        z1, z2 = rng.sample(limit_samples, 2)
        if space.kind == TREE:
            p1, p2 = _GridPoint(z1.word, 0, None), _GridPoint(z2.word, 0, None)
            n = _path_distance(1, p1, p2)
            if n == 0:
                continue
            steps = min(8, n + 1)
            unit = space.edge_length / steps
            pts = _geodesic_points(steps, p1, p2, [n * i for i in range(steps + 1)])
            out += [_tree_point(g, unit) for g in pts]
        else:
            if z1.coord == z2.coord:
                continue
            for i in range(8):
                t = -10.0 + 20.0 * (i + 0.5) / 8
                out.append(plane_line_point(z1.coord, z2.coord, action.basepoint, t))
    return out


# ---------------------------------------------------------------------------
# Patterson-Sullivan proxy measures


#: an orbit point's share of a measure; `boundary` is its BoundaryApprox
#: when projected
Atom = namedtuple("Atom", "word point displacement weight boundary", defaults=(None,))


class AtomicMeasure:
    """A normalized atomic measure: its `atoms` in orbit-entry order, the
    boundary atoms among them, and their arrays, each built on first use.
    A tree Patterson-Sullivan measure holds `_LevelItems` of atoms and level arrays
    instead (`_tree_measure`)."""

    def __init__(self, atoms, s, truncation_T):
        self.atoms = atoms
        self.s = s
        self.truncation_T = truncation_T

    @cached_property
    def boundary_atoms(self):
        return [a for a in self.atoms if a.boundary is not None]

    @cached_property
    def _tree_atoms(self):
        """Boundary atoms of a tree measure as arrays, in atom order."""
        atoms = self.boundary_atoms
        words = [a.boundary.word for a in atoms]
        width = max(map(len, words), default=0) + 1
        return _TreeAtoms(_word_rows(words, width), np.array([a.weight for a in atoms], dtype=float))

    @cached_property
    def _plane_atoms(self):
        """Boundary atoms of a plane measure as arrays, in atom order."""
        return _PlaneAtoms(self.boundary_atoms)


def _tree_measure(ball, s, thresh):
    """The Patterson-Sullivan measure of a tree ball as level arrays.

    Every word of level k is displaced by k edge_length, so each level has
    one weight e^{-s float(k L)} / total. The total is the `np.cumsum` of
    the numbers e^{-s float(k L)} repeated by the level sizes: the
    left-to-right order, and so the bits, of Python's `sum` over the orbit
    entries (plain addition on Python 3.11). The levels from `deep` on are
    projected to the boundary; their letter rows, written level by level
    from letter ranks (`_level_rows`), and weights are the `_TreeAtoms`
    arrays, so no level's words are listed.
    """
    sizes = ball.sizes
    disp = ball.level_displacements
    mass = [math.exp(-s * d) for d in disp]
    total = _ordered_sum(np.repeat(mass, sizes))
    weight = [x / total for x in mass]
    deep = next((k for k in range(1, len(disp)) if disp[k] >= thresh - 1e-12), len(disp))
    levels = list(enumerate(sizes))

    def atom(k, w):
        return Atom(w, TreePoint(w), disp[k], weight[k], tree_boundary(w) if k >= deep else None)

    measure = AtomicMeasure(_LevelItems(ball.rank, levels, atom), s, float(ball.radius))
    measure.boundary_atoms = _LevelItems(ball.rank, levels[deep:], atom)
    rows = _level_rows(ball.rank, range(deep, len(sizes)))
    measure._tree_atoms = _TreeAtoms(rows, np.repeat(weight[deep:], sizes[deep:]))
    return measure


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


class _TreeAtoms:
    """Letter rows (`_word_rows`, padded with -1), word lengths and weights
    of tree boundary atoms; a tree approximant's depth is its word length
    (`tree_boundary`).

    total is the left-to-right float sum of the weights, the order in
    which the scalar loops add them. `columns` holds the rows lexsorted
    (atom `order`), column by column, for `lcp`.
    """

    def __init__(self, rows, weight):
        self.rows, self.width = rows, rows.shape[1]
        self.lengths = np.count_nonzero(rows >= 0, axis=1)
        self.weight = weight
        self.total = _ordered_sum(weight)
        self.order = np.lexsort(self.rows.T[::-1])
        self.columns = np.ascontiguousarray(self.rows[self.order].T)

    def lcp(self, word):
        """Common-prefix length of `word` with every atom word, in atom
        order. The atoms sharing the first j letters of `word` are a range
        [lo, hi) of the sorted rows, sorted by column j, so a binary search
        per letter narrows it; the lengths are scattered back once."""
        srt = np.zeros(len(self.order), dtype=np.int64)
        lo, hi = 0, len(srt)
        for j, c in enumerate(word[: self.width]):
            col = self.columns[j, lo:hi]
            digit = _ORDER[c]
            lo, hi = lo + col.searchsorted(digit, "left"), lo + col.searchsorted(digit, "right")
            if lo == hi:
                break
            srt[lo:hi] = j + 1
        out = np.empty_like(srt)
        out[self.order] = srt
        return out


class _PlaneAtoms:
    """Endpoint coordinates (math.inf allowed), depths and weights of plane
    boundary atoms; total as in _TreeAtoms."""

    def __init__(self, atoms):
        self.coord = np.array([a.boundary.coord for a in atoms], dtype=float)
        self.depth = np.array([a.boundary.depth for a in atoms], dtype=float)
        self.weight = np.array([a.weight for a in atoms], dtype=float)
        self.total = _ordered_sum(self.weight)


def _ordered_sum(values):
    """values[0] + values[1] + ... added left to right (0.0 when empty)."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


def patterson_sullivan_atoms(action, ball, s):
    """Normalized e^{-s d(x, gx)}-weighted orbit Dirac masses.

    Requires s strictly above a rough growth estimate of the ball (below it
    the truncated sum is not a stable proxy for the limit measure). Atoms
    at displacement >= (2/3) of the ball radius also carry a boundary
    projection for reporting boundary masses. A tree measure is built from
    the ball's levels (`_tree_measure`), with no object per atom.
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
    thresh = 2.0 * float(ball.radius) / 3.0
    if action.space.kind == TREE:
        return _tree_measure(ball, s, thresh)
    total = sum(math.exp(-s * float(e.displacement)) for e in ball.entries)
    atoms = []
    for e in ball.entries:
        w = math.exp(-s * float(e.displacement)) / total
        b = None
        if e.word and float(e.displacement) >= thresh - 1e-12:
            b = _plane_entry_boundary(e)
        atoms.append(Atom(e.word, e.point, float(e.displacement), w, b))
    return AtomicMeasure(tuple(atoms), s, float(ball.radius))


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
    if not (0 < rho <= 1):
        raise ValueError("radius must be in (0, 1]")
    thr = math.log(1.0 / rho)
    if action.space.kind == TREE:
        atoms = measure._tree_atoms
        L = float(action.space.edge_length)
        k = atoms.lcp(z.word)
        inside = k * L > thr
        known = inside | (k < np.minimum(z.depth, atoms.lengths))
        resolved = atoms.lengths * L >= thr - 1e-12
    else:
        atoms = measure._plane_atoms
        value, err, known = _plane_products(action, atoms, z)
        inside = value - err > thr
        known &= inside | (value + err <= thr)
        resolved = atoms.depth >= thr - 1e-12
    mass, den = _decided_mass(atoms, resolved & known, inside)
    if mass is None:
        return None, 0.0
    return mass, den / atoms.total if atoms.total else 0.0


def _plane_products(action, atoms, z):
    """boundary_gromov_product(action, z, a) against every plane atom a at
    once: the value and error arrays, evaluated at the depths t and
    max(t - 2, 1) as in the scalar function, and a mask that is False where
    the atom's endpoint equals z's (the scalar DepthError)."""
    t = np.maximum(np.minimum(z.depth, atoms.depth), 4.0)
    value = plane_ray_products(z.coord, atoms.coord, t)
    gap = np.abs(value - plane_ray_products(z.coord, atoms.coord, np.maximum(t - 2.0, 1.0)))
    delta = action.declared_delta
    err = np.minimum(delta if delta > 0 else math.inf, gap + 1e-6)
    return value, err, atoms.coord != z.coord


def _decided_mass(atoms, decided, inside):
    """(mass of the decided atoms inside, decided mass), both summed left
    to right as the scalar loops add them; the mass is None when no atom is
    decided."""
    den = _ordered_sum(atoms.weight[decided])
    if den == 0.0:
        return None, den
    return _ordered_sum(atoms.weight[decided & inside]) / den, den


def shadow_mass(action, measure, y, r):
    """Boundary mass of the shadow of B(y, r) seen from the basepoint."""
    if r <= 0:
        raise ValueError("shadow radius must be positive")
    if action.space.kind == TREE:
        atoms = measure._tree_atoms
        decided, inside = _tree_shadow_rules(action, atoms, y, r)
    else:
        atoms = measure._plane_atoms
        inside = plane_ray_distances(y.z, atoms.coord) < r
        decided = np.ones(len(inside), dtype=bool)
    return _decided_mass(atoms, decided, inside)[0]


def _tree_shadow_rules(action, atoms, y, r):
    """shadow_contains on tree atom arrays: the (decided, inside) masks.

    In the grid units of `_on_grid`, the separation of y from the proxy
    vertex of an atom word is k m for the common-prefix length k, plus
    y's offset where y's edge leads into the word (y.word a proper prefix
    and y's direction the next letter); depths and separations are exact
    integers, and (dy - sep) / D is the float of shadow_contains.
    """
    D, m, g = _on_grid(action.space, y)
    ly = len(g.word)
    k = atoms.lcp(g.word)
    sep = k * m
    if g.direction is not None and ly < atoms.width:
        into = (k == ly) & (atoms.lengths > ly) & (atoms.rows[:, ly] == _ORDER[g.direction])
        sep[into] += g.offset
    dy = ly * m + g.offset
    return ~((sep >= atoms.lengths * m) & (dy > sep)), (dy - sep) / D < r


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
            ratio = mass / rho**h
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


def _pull_back_boundary(action, g_word, z):
    """g^{-1} z as a boundary approximant."""
    if action.space.kind == TREE:
        w = compose_words(invert_word(g_word), z.word)
        if len(w) < 1:
            raise DepthError("pullback cancels the whole approximant")
        return tree_boundary(w)
    iso = action.isometry(g_word).inverse()
    return plane_boundary(iso.boundary_apply(z.coord), z.word, z.depth)


def check_quasiconformality(action, measure, h, g_word, cells):
    """Measured quasiconformality constant of the boundary measure.

    cells: list of (z, rho) boundary balls. For each cell C the mass ratio
    mu(g^{-1} C) / mu(C) is compared against the conformal factor
    e^{h (B_z(x,x) - B_z(x,gx))} = e^{-h B_z(x, gx)}; the smallest Q
    covering all decidable nonzero cells is returned (Q is an output of the
    audit, never an assumed theoretical value). Zero-mass or undecidable
    cells are skipped and counted. On the plane mu(g^{-1} C) is the
    ball_mass of C under the measure pushed by g, built once per audit.
    """
    space = action.space
    gx = action.orbit_point(g_word)
    if space.kind == PLANE:
        pushed = _pushed_measure(action, measure, g_word)
    Q = 1.0
    used = skipped = 0
    for z, rho in cells:
        m, _ = ball_mass(action, measure, z, rho)
        if space.kind == TREE:
            try:
                zpull = _pull_back_boundary(action, g_word, z)
            except DepthError:
                skipped += 1
                continue
            mpull, _ = ball_mass(action, measure, zpull, rho_pullback(action, z, zpull, rho))
        else:
            mpull, _ = ball_mass(action, pushed, z, rho)
        if not m or not mpull:
            skipped += 1
            continue
        # Busemann value toward the cell center
        if space.kind == TREE:
            deep_word = z.word + z.word[-1] * 8
            horizon = (len(deep_word) - 1) * space.edge_length
        else:
            deep_word = None
            horizon = 30.0
        ray = (
            Ray(action.basepoint, deep_word)
            if space.kind == TREE
            else Ray(action.basepoint, z.coord)
        )
        bus, _ = busemann(space, ray, gx, horizon)
        factor = math.exp(-h * float(bus))
        ratio = mpull / m
        Q = max(Q, ratio / factor, factor / ratio)
        used += 1
    if used == 0:
        raise InsufficientDataError("no usable cells for the quasiconformality audit")
    return QuasiconformalityReport(Q, used, skipped, g_word)


def rho_pullback(action, z, zpull, rho):
    """Radius making the pulled-back tree cell exactly the image cylinder."""
    L = float(action.space.edge_length)
    shift = (len(zpull.word) - len(z.word)) * L
    return min(rho * math.exp(-shift), 1.0)


def _pushed_measure(action, measure, g_word):
    """The plane measure whose boundary atoms are pushed by g: its
    ball_mass of B(z, rho) is mu(g^{-1} B(z, rho)), under the same depth
    filter as mu(B(z, rho))."""
    iso = action.isometry(g_word)

    def push(b):
        return plane_boundary(iso.boundary_apply(b.coord), b.word, b.depth)

    atoms = tuple(a._replace(boundary=push(a.boundary)) for a in measure.boundary_atoms)
    return AtomicMeasure(atoms, measure.s, measure.truncation_T)


def tree_cylinder_cells(action, depth):
    """All depth-n cylinders as (center approximant, radius) cells."""
    from .words import reduced_words_of_length

    rho = cylinder_scale(action, depth)
    return [
        (tree_boundary(w), rho) for w in reduced_words_of_length(action.rank, depth)
    ]


def cylinder_scale(action, depth):
    """Radius whose generalized ball is exactly the depth-n cylinder."""
    return math.exp(-(depth * float(action.space.edge_length) - 1e-9))
