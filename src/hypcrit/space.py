"""Model spaces: weighted regular trees and the hyperbolic upper half-plane.

Tree lengths are exact. The tree of valence 2k is realized as the Cayley
tree of the free group F_k: vertices are reduced words, edges have length
`edge_length`, and a point in the interior of an edge is stored as
(shallow vertex word, offset, letter of the deeper endpoint). Group actions
need even valence; the geometry functions themselves never use the group
structure. Plane points are complex numbers z = re + i*im with im > 0 and
all plane arithmetic is float64 with a declared metric tolerance of 1e-9.

The tree has one distance and geodesic kernel (`_path_distance`,
`_point_at_depth`, `_geodesic_points`), written over points with an
integer offset and the edge length `m` counted in the same unit. The hot
paths run it on `_GridPoint`s of an integer grid: the lemma sweeps on the
grid of `tree_grid` (1/D with D = 128 * denominator(edge_length), fine
enough for every sampled offset, parameter and split), snapshots on their
resolution steps. A grid length k converts to float once, as k / D, which
is float(Fraction(k, D)). `TreePoint` with `Fraction` offsets is the public
type and the reference: `distance`, `geodesic_point` and `ray_points` run
the same kernel in `Fraction` arithmetic with m = edge_length.

Each model has one kernel per job. On the plane every line point comes
from `_plane_line_coords`, as a complex coordinate: conjugate the line to
the positive imaginary axis by a Mobius map and move along it by
multiplying the imaginary part by e^t. `plane_line_points` and
`ray_points` wrap its coordinates as `PlanePoint`s; the lemma sweeps
measure the coordinates themselves with `plane_distance`, as it yields
them, and stop reading a line once it cannot change a defect.
Distances to segments, rays and ideal lines are distances to an arc of that
axis (`_dist_to_axis_arc`).

This module is scalar and loads no numpy. The vectorized distance kernels
(`pairwise_distances`, `distances_to_point`, `_TreePaths`) and the
closed forms for rays from the basepoint i (`plane_ray_product`,
`plane_ray_distance`) live in `arrays`; `ray_point`, `gromov_product` and
`plane_dist_to_ray` here are the closed forms' independent reference.
"""

import math
from collections import namedtuple
from fractions import Fraction

from .errors import DepthError, KindMismatchError, ParameterError
from .words import is_reduced

TREE = "tree"
PLANE = "plane"

#: declared point-equality tolerance in the plane metric
PLANE_TOL = 1e-9


class TreePoint:
    """A point of the weighted tree.

    ``word`` is the reduced word of the shallowest vertex of the edge the
    point lies on; ``offset`` (a Fraction, in length units, 0 <= offset <
    edge_length) is the distance from that vertex toward the deeper vertex
    ``word + direction``. Vertices have offset 0 and direction None.
    """

    __slots__ = ("word", "offset", "direction")

    def __init__(self, word, offset=Fraction(0), direction=None):
        if not is_reduced(word):
            raise ValueError("tree vertex word must be reduced: %r" % word)
        if offset == 0:
            if direction is not None:
                raise ValueError("vertex point must have direction None")
        else:
            if direction is None:
                raise ValueError("edge-interior point needs a direction letter")
            if word and direction == word[-1].swapcase():
                raise ValueError("direction would backtrack; not a reduced edge")
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "direction", direction)

    def __setattr__(self, name, value):
        raise AttributeError("TreePoint is immutable")

    def __repr__(self):
        return "TreePoint(word=%r, offset=%r, direction=%r)" % (
            self.word, self.offset, self.direction)

    def __eq__(self, other):
        if other.__class__ is not TreePoint:
            return NotImplemented
        return (self.word, self.offset, self.direction) == (
            other.word, other.offset, other.direction)

    def __hash__(self):
        return hash((self.word, self.offset, self.direction))


class PlanePoint:
    """Upper half-plane point, stored as a complex number with im > 0."""

    __slots__ = ("z",)

    def __init__(self, z):
        if not (z.imag > 0):
            raise ValueError("plane point must have positive imaginary part")
        object.__setattr__(self, "z", z)

    def __setattr__(self, name, value):
        raise AttributeError("PlanePoint is immutable")

    def __repr__(self):
        return "PlanePoint(z=%r)" % (self.z,)

    def __eq__(self, other):
        if other.__class__ is not PlanePoint:
            return NotImplemented
        return self.z == other.z

    def __hash__(self):
        return hash((self.z,))


#: the basepoint of each model kind, one shared frozen point
_BASEPOINTS = {TREE: TreePoint(""), PLANE: PlanePoint(1j)}


class ModelSpace(namedtuple("ModelSpace", "kind valence edge_length", defaults=(0, Fraction(1)))):
    __slots__ = ()

    @staticmethod
    def tree(valence=4, edge_length=1):
        if valence < 3:
            raise ParameterError("tree valence must be >= 3")
        if Fraction(edge_length) <= 0:
            raise ParameterError("tree edge length must be positive, got %s" % edge_length)
        return ModelSpace(TREE, valence, Fraction(edge_length))

    @staticmethod
    def plane():
        return ModelSpace(PLANE)

    @property
    def basepoint(self):
        return _BASEPOINTS[self.kind]

    @property
    def rank(self):
        """Free-group rank of the tree (valence must be even)."""
        if self.kind != TREE:
            raise KindMismatchError("rank only defined for trees")
        if self.valence % 2 != 0:
            raise ParameterError("group structure needs even valence, got %d" % self.valence)
        return self.valence // 2


def _check_point(space, p):
    if space.kind == TREE and not isinstance(p, TreePoint):
        raise KindMismatchError("expected a tree point, got %r" % (p,))
    if space.kind == PLANE and not isinstance(p, PlanePoint):
        raise KindMismatchError("expected a plane point, got %r" % (p,))


def _lcp(u, v):
    """Common-prefix length of the strings u and v."""
    if v.startswith(u):
        return len(u)
    if u.startswith(v):
        return len(v)
    # neither is a prefix of the other: they differ before either ends
    i = 0
    while u[i] == v[i]:
        i += 1
    return i


# ---------------------------------------------------------------------------
# the tree kernel: every function below reads only word, offset and
# direction, with m the edge length in the offsets' unit, so it runs on
# `_GridPoint`s in integers and on `TreePoint`s in Fractions alike

#: a tree point with an integer offset: the vertex word, the offset toward
#: the deeper endpoint of its edge in grid units, and that endpoint's letter
#: (offset 0 and direction None at a vertex)
_GridPoint = namedtuple("_GridPoint", "word offset direction")


def tree_grid(space):
    """(D, m): grid units per unit of length, and per edge, on the tree.

    D = 128 * denominator(edge_length), so an edge is m = 128 *
    numerator(edge_length) units and the grid holds every length the lemma
    sweeps sample: offsets of edge/8, parameters in steps of 1/2, shifts in
    steps of 1/8 and splits d * k/16 of a distance d between such points.
    Tree medians are vertices or input points, so Gromov products stay on
    the grid too.
    """
    L = space.edge_length
    return 128 * L.denominator, 128 * L.numerator


def _tree_separation(m, p, q):
    """Length of the common initial segment of the two root-paths, for edge
    length m. A vertex's direction None matches no letter, and two
    vertices share their offset 0."""
    pw, qw = p.word, q.word
    k = _lcp(pw, qw)
    lp, lq = len(pw), len(qw)
    if k < lp and k < lq:
        return k * m
    if lp == lq:
        # same vertex
        return lp * m + min(p.offset, q.offset) if p.direction == q.direction else lp * m
    if lp < lq:
        return lp * m + p.offset if p.direction == qw[lp] else lp * m
    return lq * m + q.offset if q.direction == pw[lq] else lq * m


def _path_distance(m, p, q):
    """d(p, q) for edge length m: both depths less twice the separation."""
    return (len(p.word) + len(q.word)) * m + p.offset + q.offset - 2 * _tree_separation(m, p, q)


def _grid_product(m, x, y, z):
    """(y, z)_x on the grid: the distance from x to the median of x, y, z,
    a vertex or one of the three points, so an exact integer."""
    return (_path_distance(m, x, y) + _path_distance(m, x, z) - _path_distance(m, y, z)) // 2


def _point_at_depth(m, word, direction, depth):
    """Point on the root-path of (word [+ direction partial edge]) at
    `depth`, made by tuple.__new__, as namedtuple's `_make` does, without
    the Python frame of the record's own constructor."""
    k, r = divmod(depth, m)
    if r == 0:
        return tuple.__new__(_GridPoint, (word[:k], r, None))
    return tuple.__new__(_GridPoint, (word[:k], r, word[k] if k < len(word) else direction))


def _geodesic_points(m, p, q, ts):
    """The points at arclengths ts (each in [0, d(p, q)], unchecked) along
    the geodesic from p to q."""
    sep = _tree_separation(m, p, q)
    depth = len(p.word) * m + p.offset
    a = depth - sep  # length of the upward leg
    return [
        _point_at_depth(m, p.word, p.direction, depth - t) if t <= a
        else _point_at_depth(m, q.word, q.direction, sep + (t - a))
        for t in ts
    ]


def _grid_geodesic_point(m, p, q, t):
    d = _path_distance(m, p, q)
    if t < 0 or t > d:
        raise ValueError("geodesic parameter out of range: t=%s, d=%s" % (t, d))
    return _geodesic_points(m, p, q, [t])[0]


def _grid_ray_points(m, p, proxy, ts):
    """Points at the arclengths ts (each >= 0) along the ray from p through
    the vertex proxy; DepthError past the proxy."""
    d = _path_distance(m, p, proxy)
    for t in ts:
        if t > d:
            raise DepthError("ray proxy too shallow: t=%s beyond proxy distance %s" % (t, d))
    return _geodesic_points(m, p, proxy, ts)


def _tree_point(g, unit):
    """The `TreePoint` of a grid point whose offset counts `unit`s of length."""
    if not g.offset:
        return TreePoint(g.word)
    return TreePoint(g.word, g.offset * unit, g.direction)


def plane_distance(z1, z2):
    """d(z1, z2) = 2 asinh(|z1-z2| / (2 sqrt(y1 y2))); stable near 0."""
    return 2.0 * math.asinh(abs(z1 - z2) / (2.0 * math.sqrt(z1.imag * z2.imag)))


def distance(space, p, q):
    """Distance in the model space. Exact Fraction on trees, float on plane."""
    _check_point(space, p)
    _check_point(space, q)
    if space.kind == TREE:
        return _path_distance(space.edge_length, p, q)
    return plane_distance(p.z, q.z)


def gromov_product(space, base, y, z):
    """(y, z)_base = (d(base,y) + d(base,z) - d(y,z)) / 2."""
    dxy = distance(space, base, y)
    dxz = distance(space, base, z)
    dyz = distance(space, y, z)
    return (dxy + dxz - dyz) / 2


# ---------------------------------------------------------------------------
# plane geodesics (single Mobius-conjugation code path)


def _mobius_apply(M, z):
    a, b, c, d = M
    if z == math.inf:
        return a / c if c != 0 else math.inf
    den = c * z + d
    if den == 0:
        return math.inf
    return (a * z + b) / den


def _mobius_inverse(M):
    a, b, c, d = M
    return (d, -b, -c, a)


def _mobius_to_axis(u, v):
    """Mobius map sending boundary points u -> 0, v -> infinity.

    Maps the geodesic line (u, v) onto the positive imaginary axis;
    determinant kept positive so the upper half-plane is preserved.
    """
    if u == math.inf:
        return (0.0, 1.0, -1.0, v)
    if v == math.inf:
        return (1.0, -u, 0.0, 1.0)
    if u > v:
        return (1.0, -u, 1.0, -v)
    return (1.0, -u, -1.0, v)


def plane_geodesic_endpoints(z1, z2):
    """Ideal endpoints (u, v) of the geodesic through z1, z2, v on the z2 side."""
    if abs(z1.real - z2.real) <= 1e-14 * (1.0 + abs(z1.real) + abs(z2.real)):
        x = 0.5 * (z1.real + z2.real)
        if z2.imag >= z1.imag:
            return x, math.inf
        return math.inf, x
    c = (abs(z1) ** 2 - abs(z2) ** 2) / (2.0 * (z1.real - z2.real))
    r = abs(z1 - c)
    u, v = c - r, c + r
    # orient: moving from z1 to z2 must head toward v
    M = _mobius_to_axis(u, v)
    if _mobius_apply(M, z2).imag >= _mobius_apply(M, z1).imag:
        return u, v
    return v, u


def _plane_geodesic_point(space, p, q, t):
    d = plane_distance(p.z, q.z)
    if t < -PLANE_TOL or t > d + PLANE_TOL:
        raise ValueError("geodesic parameter out of range")
    t = min(max(t, 0.0), d)
    if d == 0.0:
        return p
    u, v = plane_geodesic_endpoints(p.z, q.z)
    return plane_line_point(u, v, p, t)


def geodesic_point(space, p, q, t):
    """The point at arclength t along the geodesic from p to q."""
    _check_point(space, p)
    _check_point(space, q)
    if space.kind == TREE:
        return TreePoint(*_grid_geodesic_point(space.edge_length, p, q, Fraction(t)))
    return _plane_geodesic_point(space, p, q, float(t))


# ---------------------------------------------------------------------------
# rays toward the boundary

class Ray(namedtuple("Ray", "origin target")):
    """Geodesic ray description: origin point + boundary target.

    Tree target: a deep reduced word (finite prefix of the intended
    boundary word); the ray is only usable up to the depth of the proxy
    vertex. Plane target: an ideal endpoint, a real number or math.inf.
    """

    __slots__ = ()


def ray_point(space, ray, t):
    """Point at arclength t >= 0 along the ray."""
    return ray_points(space, ray, [t])[0]


def ray_points(space, ray, ts):
    """Points at the arclengths ts (a sequence, each >= 0) along the ray.

    The ray's plane line, or on the tree the split of its root path at the
    branch point, is built once for all of ts; each point is the one
    `ray_point` returns. A tree parameter beyond the proxy vertex raises
    DepthError.
    """
    if any(t < 0 for t in ts):
        raise ValueError("ray parameter must be nonnegative")
    if space.kind != TREE:
        return [PlanePoint(z) for z in _plane_ray_coords(ray.origin.z, ray.target, ts)]
    pts = _grid_ray_points(
        space.edge_length, ray.origin, TreePoint(ray.target), [Fraction(t) for t in ts]
    )
    return [TreePoint(*g) for g in pts]


def _ray_line(p, e):
    """Ideal endpoints (u, e) of the plane line through p and the ideal
    point e, so that the ray from p toward e heads toward e on it."""
    if e == math.inf:
        return p.real, e
    if abs(p.real - e) <= 1e-14 * (1.0 + abs(e)):
        return math.inf, e  # vertical line down to e
    c = (abs(p) ** 2 - e * e) / (2.0 * (p.real - e))
    return 2.0 * c - e, e


def busemann(space, ray, y, horizon):
    """Busemann cocycle approximation B(origin side): d(ray(horizon), y) - horizon.

    Returns (value, error_bound). On the tree the sequence stabilizes once
    the horizon passes the projection of y onto the ray, and the error bound
    is then exactly 0. On the plane the approximant decreases monotonically
    to the limit; the reported bound is the measured decrease over the last
    doubling of the horizon (an empirical gap, not a certified bound).
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    _check_point(space, y)
    if space.kind == TREE:
        h = Fraction(horizon)
        value = distance(space, ray_point(space, ray, h), y) - h
        prev_h = h - space.edge_length
        if prev_h > 0:
            prev = distance(space, ray_point(space, ray, prev_h), y) - prev_h
            err = Fraction(0) if prev == value else space.edge_length
        else:
            err = space.edge_length
        return value, err
    h = float(horizon)
    value = plane_distance(ray_point(space, ray, h).z, y.z) - h
    half = plane_distance(ray_point(space, ray, h / 2).z, y.z) - h / 2
    return value, max(half - value, 0.0)


# ---------------------------------------------------------------------------
# hyperbolicity estimation

HyperbolicityEstimate = namedtuple("HyperbolicityEstimate", "delta_hat sample_count max_defect_witness")


def estimate_delta(space, samples):
    """Largest observed defect of the four-point product inequality.

    samples: list of quadruples (w, x, y, z). The result is a certified
    lower bound for the hyperbolicity constant of the space restricted to
    the sample; no upper bound is claimed.
    """
    if not samples:
        raise ValueError("need at least one sample quadruple")
    best = None
    witness = None
    for (w, x, y, z) in samples:
        defect = min(
            gromov_product(space, w, x, y), gromov_product(space, w, y, z)
        ) - gromov_product(space, w, x, z)
        if best is None or defect > best:
            best = defect
            witness = (w, x, y, z)
    delta_hat = max(best, type(best)(0))
    return HyperbolicityEstimate(delta_hat, len(samples), witness)


# ---------------------------------------------------------------------------
# distances to geodesics (closed forms, used by the inequality audits)


def dist_to_segment(space, x, p, q):
    """d(x, [p,q]) for the geodesic segment between p and q."""
    if space.kind == TREE:
        # on a tree the distance to a geodesic equals the Gromov product
        return gromov_product(space, x, p, q)
    if plane_distance(p.z, q.z) < 1e-13:
        return plane_distance(x.z, p.z)
    u, v = plane_geodesic_endpoints(p.z, q.z)
    M = _mobius_to_axis(u, v)
    a = abs(_mobius_apply(M, p.z))
    b = abs(_mobius_apply(M, q.z))
    return _dist_to_axis_arc(_mobius_apply(M, x.z), min(a, b), max(a, b))


def plane_dist_to_ideal_line(x, u, v):
    """d(x, line(u, v)) for ideal endpoints u != v on the boundary."""
    return _dist_to_axis_arc(_mobius_apply(_mobius_to_axis(u, v), x.z), 0.0, math.inf)


def plane_dist_to_ray(x, p, e):
    """d(x, ray from p toward the ideal point e)."""
    u, e = _ray_line(p.z, e)
    M = _mobius_to_axis(u, e)
    return _dist_to_axis_arc(_mobius_apply(M, x.z), abs(_mobius_apply(M, p.z)), math.inf)


def _dist_to_axis_arc(xm, a, b):
    """Distance from xm to the arc {iy : a <= y <= b} of the imaginary axis."""
    rho = abs(xm)
    if a <= rho <= b:
        return math.asinh(abs(xm.real) / xm.imag)
    return plane_distance(xm, complex(0.0, a if rho < a else b))


def plane_line_point(u, v, xref, t):
    """Point on the ideal line (u,v) at signed arclength t from the
    projection of xref onto the line (positive direction toward v)."""
    return plane_line_points(u, v, xref, [t])[0]


def plane_line_points(u, v, xref, ts):
    """`plane_line_point` at each of the arclengths ts, conjugating the
    line to the axis once."""
    return [PlanePoint(w) for w in _plane_line_coords(u, v, xref.z, ts)]


def _plane_line_coords(u, v, z, ts):
    """Complex coordinates of `plane_line_points(u, v, PlanePoint(z), ts)`,
    yielded one t at a time: the one line kernel of the plane. The inverse
    Mobius map is `_mobius_apply` written out, the same float operations in
    the same order."""
    if u == math.inf:
        # vertical line down to v, in closed form: the Mobius round trip
        # loses the real part's precision as the point nears the boundary
        r = abs(z - v)
        for t in ts:
            yield complex(v, max(r * math.exp(-t), 1e-300))
        return
    M = _mobius_to_axis(u, v)
    a, b, c, d = _mobius_inverse(M)
    rho = abs(_mobius_apply(M, z))
    for t in ts:
        w = complex(0.0, rho * math.exp(t))
        den = c * w + d
        if den == 0:
            yield complex(math.inf, 1e-300)
        else:
            w = (a * w + b) / den
            yield complex(w.real, max(w.imag, 1e-300))


def _plane_ray_coords(z, e, ts):
    """Complex coordinates of `ray_points` at the arclengths ts along the
    plane ray from z toward the ideal point e, yielded lazily."""
    u, e = _ray_line(z, e)
    return _plane_line_coords(u, e, z, ts)


def __getattr__(name):
    """The public names of `arrays` still read as `space` attributes (as
    `space.pairwise_distances`); the first such read loads numpy."""
    if not name.startswith("_"):
        from . import arrays

        if hasattr(arrays, name):
            return getattr(arrays, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
