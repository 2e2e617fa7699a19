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
measure the coordinates themselves with `plane_distance`.
Distances to segments, rays and ideal lines are distances to an arc of that
axis (`_dist_to_axis_arc`). Vectorized distance rows come from
`_distance_rows`: sorted root paths on trees, the arcsinh formula
(`plane_distances`) on the plane. A tree distance is depth_i + depth_j -
2 sep with the separation in min form, sep = min(lcp L, depth_i, depth_j)
(`_separated`). `DistanceTable` keeps a fixed net's distances for repeated
reads by rows or pairs: on trees the int8 common-prefix table in sorted
root-path order, filled by trie blocks (`_TreePaths.prefix_table`), on the
plane the dense table.

Rays from the basepoint i need no ray points: Gromov products of ray
points at a common depth (`plane_ray_product`) and distances to such rays
(`plane_ray_distance`) have closed forms from the hyperbolic law of
cosines, in `math` for single calls and in numpy over arrays of ideal
points. `ray_point`, `gromov_product` and `plane_dist_to_ray`, which build
the ray's line, are their independent reference.
"""

import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DepthError, KindMismatchError
from .words import is_reduced, _ORDER

TREE = "tree"
PLANE = "plane"

#: declared point-equality tolerance in the plane metric
PLANE_TOL = 1e-9


@dataclass(frozen=True)
class TreePoint:
    """A point of the weighted tree.

    ``word`` is the reduced word of the shallowest vertex of the edge the
    point lies on; ``offset`` (a Fraction, in length units, 0 <= offset <
    edge_length) is the distance from that vertex toward the deeper vertex
    ``word + direction``. Vertices have offset 0 and direction None.
    """

    word: str
    offset: Fraction = Fraction(0)
    direction: str = None

    def __post_init__(self):
        if not is_reduced(self.word):
            raise ValueError("tree vertex word must be reduced: %r" % self.word)
        if self.offset == 0:
            if self.direction is not None:
                raise ValueError("vertex point must have direction None")
        else:
            if self.direction is None:
                raise ValueError("edge-interior point needs a direction letter")
            if self.word and self.direction == self.word[-1].swapcase():
                raise ValueError("direction would backtrack; not a reduced edge")

    @property
    def is_vertex(self):
        return self.offset == 0


@dataclass(frozen=True)
class PlanePoint:
    """Upper half-plane point, stored as a complex number with im > 0."""

    z: complex

    def __post_init__(self):
        if not (self.z.imag > 0):
            raise ValueError("plane point must have positive imaginary part")


#: the basepoint of each model kind, one shared frozen point
_BASEPOINTS = {TREE: TreePoint(""), PLANE: PlanePoint(1j)}


@dataclass(frozen=True)
class ModelSpace:
    kind: str
    valence: int = 0
    edge_length: Fraction = Fraction(1)

    @staticmethod
    def tree(valence=4, edge_length=1):
        if valence < 3:
            raise ValueError("tree valence must be >= 3")
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
            raise ValueError("group structure needs even valence")
        return self.valence // 2


def _check_point(space, p):
    if space.kind == TREE and not isinstance(p, TreePoint):
        raise KindMismatchError("expected a tree point, got %r" % (p,))
    if space.kind == PLANE and not isinstance(p, PlanePoint):
        raise KindMismatchError("expected a plane point, got %r" % (p,))


def _lcp(u, v):
    n = min(len(u), len(v))
    i = 0
    while i < n and u[i] == v[i]:
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
    length m."""
    k = _lcp(p.word, q.word)
    lp, lq = len(p.word), len(q.word)
    if k < lp and k < lq:
        return k * m
    if lp == lq:
        # same vertex
        if p.direction is not None and p.direction == q.direction:
            return lp * m + min(p.offset, q.offset)
        return lp * m
    if lp < lq:
        if p.direction is not None and p.direction == q.word[lp]:
            return lp * m + p.offset
        return lp * m
    if q.direction is not None and q.direction == p.word[lq]:
        return lq * m + q.offset
    return lq * m


def _path_distance(m, p, q):
    """d(p, q) for edge length m: both depths less twice the separation."""
    return len(p.word) * m + p.offset + len(q.word) * m + q.offset - 2 * _tree_separation(m, p, q)


def _grid_product(m, x, y, z):
    """(y, z)_x on the grid: the distance from x to the median of x, y, z,
    a vertex or one of the three points, so an exact integer."""
    return (_path_distance(m, x, y) + _path_distance(m, x, z) - _path_distance(m, y, z)) // 2


def _point_at_depth(m, word, direction, depth):
    """Point on the root-path of (word [+ direction partial edge]) at `depth`."""
    k, r = divmod(depth, m)
    if r == 0:
        return _GridPoint(word[:k], r, None)
    return _GridPoint(word[:k], r, word[k] if k < len(word) else direction)


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

@dataclass(frozen=True)
class Ray:
    """Geodesic ray description: origin point + boundary target.

    Tree target: a deep reduced word (finite prefix of the intended
    boundary word); the ray is only usable up to the depth of the proxy
    vertex. Plane target: an ideal endpoint, a real number or math.inf.
    """

    origin: object
    target: object


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

@dataclass(frozen=True)
class HyperbolicityEstimate:
    delta_hat: float
    sample_count: int
    max_defect_witness: tuple


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
    """Complex coordinates of `plane_line_points(u, v, PlanePoint(z), ts)`:
    the one line kernel of the plane."""
    if u == math.inf:
        # vertical line down to v, in closed form: the Mobius round trip
        # loses the real part's precision as the point nears the boundary
        r = abs(z - v)
        return [complex(v, max(r * math.exp(-t), 1e-300)) for t in ts]
    M = _mobius_to_axis(u, v)
    M_inv = _mobius_inverse(M)
    rho = abs(_mobius_apply(M, z))
    out = []
    for t in ts:
        w = _mobius_apply(M_inv, complex(0.0, rho * math.exp(t)))
        out.append(complex(w.real, max(w.imag, 1e-300)))
    return out


def _plane_ray_coords(z, e, ts):
    """Complex coordinates of `ray_points` at the arclengths ts along the
    plane ray from z toward the ideal point e."""
    u, e = _ray_line(z, e)
    return _plane_line_coords(u, e, z, ts)


# ---------------------------------------------------------------------------
# vectorized distances

#: byte -> canonical letter rank; every non-letter byte maps to the padding
#: digit -1
_DIGIT = np.full(256, -1, dtype=np.int8)
for _c, _r in _ORDER.items():
    _DIGIT[ord(_c)] = _r

#: rows per block when a dense distance table is filled
_BLOCK = 64


def _word_rows(words, width):
    """Letter ranks of each word as an int8 row of `width` digits.

    Shorter words are padded with -1, longer ones truncated.
    """
    if not words:
        return np.zeros((0, width), dtype=np.int8)
    buf = "".join(w[:width].ljust(width, "\0") for w in words).encode("ascii")
    return _DIGIT[np.frombuffer(buf, dtype=np.uint8)].reshape(len(words), width)


def _row_lcp(a, b):
    """Common-prefix length of digit rows a and b (broadcast row-wise); the
    full width where they agree everywhere."""
    neq = a != b
    return np.where(neq.any(axis=-1), neq.argmax(axis=-1), neq.shape[-1])


def _separated(L, lcp, di, dj):
    """Tree distances di + dj - 2 sep from common-prefix lengths lcp and
    the depths di = fl(fl(wl L) + off) of the two points (broadcast
    arrays), with the separation in min form, sep = min(lcp L, di, dj).

    That is bitwise the float separation of `_tree_separation`: fl(lcp L)
    where the root paths part within the shorter word, else the depth of
    the shallower point, fl(fl(shorter L) + off).
    - If lcp <= shorter, fl(lcp L) <= fl(wl L) <= depth for both points,
      as rounding is monotone and offsets are >= 0.
    - If lcp > shorter, then fl(lcp L) >= fl((shorter + 1) L), and the
      shallower depth lies below (shorter + 1) L by L - off: at least one
      grid step for every point this package makes (a net's resolution
      step, an eighth of an edge for sampled points), far beyond the
      rounding of a depth. With equal word lengths the points share word
      and direction, and the min of their depths is the shallower one;
      otherwise the deeper depth is >= fl((shorter + 1) L) too.
    The min and the sum are symmetric, so the distance is bitwise
    symmetric. It needs no clamp at 0: 2 sep <= 2 min(di, dj) is a float,
    so fl(di + dj) >= 2 sep.
    """
    sep = lcp * L
    np.minimum(sep, di, out=sep)
    np.minimum(sep, dj, out=sep)
    d = dj + di
    sep *= 2.0
    d -= sep
    return d


class _TreePaths:
    """Root paths of a list of tree points, the one tree-distance kernel.

    The points come as arrays: vertex words, direction letters (None at a
    vertex) and float64 offsets. Row i of `rows` holds the letters of
    words[i] (`lengths[i]` of them) followed by its direction letter,
    padded to one more digit than the longest word. The rows are sorted
    once (`order` lists the points in sorted order, `rank` is its
    inverse); the common-prefix length of sorted rows a < b is then the
    minimum of the `adjacent` common-prefix lengths between them, so no
    n x n x depth comparison is ever built.

    A distance is two steps: a common-prefix length (a small integer, so a
    whole n x n table fits in int8, n^2 bytes), then the float64 formula of
    `_separated` on the two depths. `prefix_lengths` gives one point's
    prefix lengths against all others in net order, O(n) each;
    `prefix_table` fills the whole table in sorted order by trie blocks.
    Every route reads the same per-point depths, so a distance is bitwise
    the same whichever way its prefix length was stored or its pair was
    selected, and bitwise symmetric in i and j.
    """

    def __init__(self, edge_length, words, directions, offsets):
        n = len(words)
        self.L = float(edge_length)
        self.lengths = np.array([len(w) for w in words], dtype=np.int64)
        self.depth = self.lengths * self.L + np.asarray(offsets, dtype=float)
        self.width = int(self.lengths.max()) + 1 if n else 1
        self.rows = _word_rows([w + (d or "") for w, d in zip(words, directions)], self.width)
        self.order = np.lexsort(self.rows.T[::-1])
        srt = self.rows[self.order]
        self.adjacent = _row_lcp(srt[1:], srt[:-1])
        self.rank = np.empty(n, dtype=np.int64)
        self.rank[self.order] = np.arange(n)

    def prefix_lengths(self, rows):
        """(len(rows), n) common-prefix lengths of the points at `rows`, in
        net order, one row at a time."""
        lcp = np.empty((len(rows), len(self.rank)), dtype=np.int64)
        srt = np.empty(len(self.rank), dtype=np.int64)
        for r, p in enumerate(self.rank[rows].tolist()):
            srt[p] = self.width
            srt[p + 1 :] = np.minimum.accumulate(self.adjacent[p:])
            srt[:p] = np.minimum.accumulate(self.adjacent[:p][::-1])[::-1]
            lcp[r] = srt[self.rank]
        return lcp

    def prefix_table(self):
        """The (n, n) int8 common-prefix lengths among the points in sorted
        order: entry (a, b) belongs to points order[a] and order[b].

        Filled by trie blocks. For each level k = 1 .. width, the sorted
        rows whose adjacent common-prefix lengths are >= k form contiguous
        runs (the points below one trie node of depth k), and each run's
        diagonal block gains 1; sorted rows a < b share min(adjacent[a:b])
        such levels. The diagonal is then set to the full width.
        """
        if self.width > np.iinfo(np.int8).max:
            raise ValueError("prefix lengths up to %d overflow int8" % self.width)
        n = len(self.rank)
        table = np.zeros((n, n), dtype=np.int8)
        for k in range(1, self.width + 1):
            edges = np.flatnonzero(np.diff(np.concatenate(([0], self.adjacent >= k, [0]))))
            for a, b in zip(edges[::2].tolist(), edges[1::2].tolist()):
                table[a : b + 1, a : b + 1] += 1
        np.fill_diagonal(table, self.width)
        return table

    def distances(self, rows):
        """(len(rows), n) distances from the points at indices `rows`."""
        rows = np.asarray(rows)
        return _separated(self.L, self.prefix_lengths(rows), self.depth[rows, None], self.depth)


class DistanceTable:
    """Distances among a fixed list of points, read by rows or by pairs.

    Built from a tree net's `_TreePaths`, it keeps their int8 common-prefix
    table (n^2 bytes) in sorted root-path order, as `prefix_table` fills
    it, and evaluates `_separated` on demand, so a block of b rows costs
    O(b n) floats and no n x n float table exists. `order` lists the net
    indices in table order and `rank` is its inverse. Built from a plane
    net's dense float64 `pairwise_distances` table, it keeps that, with
    `order` and `rank` the identity. Either way an entry is bitwise the
    entry of `pairwise_distances(space, points)`.

    `sorted_rows` reads in table order, without a gather of the table;
    `rows` and `pairs` take net indices.
    """

    def __init__(self, source):
        if isinstance(source, _TreePaths):
            self.order, self.rank = source.order, source.rank
            self._L = source.L
            self._depth = source.depth[self.order]
            self._table = source.prefix_table()
        else:
            self.order = self.rank = np.arange(len(source))
            self._depth = None
            self._table = source

    def _entries(self, cells, a, b):
        """Distances of the table cells between table positions a and b."""
        if self._depth is None:
            return cells
        return _separated(self._L, cells, self._depth[a], self._depth[b])

    def sorted_rows(self, rows, start=0):
        """(len(rows), n - start) distances from the table positions `rows`
        (an index array or a slice) to the positions from `start` on."""
        # (rows, None) indexes the depths of `rows` as a column
        return self._entries(self._table[rows, start:], (rows, None), slice(start, None))

    def rows(self, rows, start=0):
        """(len(rows), n - start) distances from the points at net indices
        `rows` to the points from net index `start` on."""
        a = self.rank[np.asarray(rows)][:, None]
        b = self.rank[start:]
        return self._entries(self._table[a, b], a, b)

    def pairs(self, i, j):
        """Distances between points i[k] and j[k] for equal-length arrays
        of net indices."""
        a, b = self.rank[i], self.rank[j]
        return self._entries(self._table[a, b], a, b)


def _distance_rows(space, points):
    """The one vectorized distance kernel of each model: a function taking
    an index array `rows` to the (len(rows), n) float64 distances from those
    points to all of `points`."""
    if space.kind == TREE:
        return _TreePaths(
            space.edge_length,
            [p.word for p in points],
            [p.direction for p in points],
            [float(p.offset) for p in points],
        ).distances
    z = np.array([p.z for p in points], dtype=complex)
    return lambda rows: plane_distances(z[rows, None], z)


def plane_distances(z1, z2):
    """`plane_distance` over broadcast arrays of complex coordinates."""
    return 2.0 * np.arcsinh(np.abs(z1 - z2) / (2.0 * np.sqrt(z1.imag * z2.imag)))


def pairwise_distances(space, points):
    """Dense float64 distance matrix over a list of model points.

    The table is filled a block of rows at a time, so the memory used
    beyond the n x n output grows with n, not with n^2 * depth.
    """
    n = len(points)
    rows = _distance_rows(space, points)
    d = np.empty((n, n))
    for start in range(0, n, _BLOCK):
        d[start : start + _BLOCK] = rows(np.arange(start, min(start + _BLOCK, n)))
    np.fill_diagonal(d, 0.0)
    return d


def distances_to_point(space, points, q):
    """Vector of distances from each point in `points` to q."""
    points = list(points)
    return _distance_rows(space, points + [q])(np.array([len(points)]))[0, :-1]


# ---------------------------------------------------------------------------
# plane rays from the basepoint i, in closed form: the Cayley map
# z -> (z - i)/(z + i) takes i to 0 and the ideal point e to the unit
# complex number (e - i)/(e + i) (1 at e = inf), so a ray from i is a
# radius of the disk


def _half_angle_sine(e1, e2):
    """sin(theta/2) for the angle theta at i between the rays toward the
    distinct ideal points e1 and e2."""
    if e1 == math.inf:
        return 1.0 / math.hypot(1.0, e2)
    if e2 == math.inf:
        return 1.0 / math.hypot(1.0, e1)
    return abs(e1 - e2) / (math.hypot(1.0, e1) * math.hypot(1.0, e2))


def plane_ray_product(e1, e2, t):
    """(p1 | p2)_i of the points at arclength t on the rays from i toward
    the distinct ideal points e1 and e2.

    By the hyperbolic law of cosines sinh(d(p1, p2)/2) = sinh t sin(theta/2),
    so the product t - d(p1, p2)/2 takes no difference of ray distances.
    """
    return t - math.asinh(math.sinh(t) * _half_angle_sine(e1, e2))


def plane_ray_products(e1, e2, t):
    """`plane_ray_product` over broadcast arrays (math.inf allowed; the
    value where e1 == e2 is meaningless)."""
    e1, e2 = np.asarray(e1, dtype=float), np.asarray(e2, dtype=float)
    with np.errstate(invalid="ignore"):
        sine = np.abs(e1 - e2) / (np.hypot(1.0, e1) * np.hypot(1.0, e2))
    sine = np.where(np.isinf(e1), 1.0 / np.hypot(1.0, e2), sine)
    sine = np.where(np.isinf(e2), 1.0 / np.hypot(1.0, e1), sine)
    return t - np.arcsinh(np.sinh(t) * sine)


def plane_ray_distance(y, e):
    """d(y, ray from i toward the ideal point e) for a plane coordinate y.

    With u, w the Cayley images of e and y and rho = d(i, y), the distance
    is asinh((1 + cosh rho) |Im(conj(u) w)|) when the foot of the
    perpendicular lies on the ray (Re(conj(u) w) > 0), and rho otherwise.
    """
    rho = plane_distance(1j, y)
    u = 1.0 if e == math.inf else (e - 1j) / (e + 1j)
    v = u.conjugate() * (y - 1j) / (y + 1j)
    if v.real > 0:
        return math.asinh((1.0 + math.cosh(rho)) * abs(v.imag))
    return rho


def plane_ray_distances(y, e):
    """`plane_ray_distance(y, e)` over an array of ideal points e."""
    e = np.asarray(e, dtype=float)
    rho = plane_distance(1j, y)
    finite = np.where(np.isinf(e), 0.0, e)
    u = np.where(np.isinf(e), 1.0, (finite - 1j) / (finite + 1j))
    v = np.conj(u) * ((y - 1j) / (y + 1j))
    return np.where(v.real > 0, np.arcsinh((1.0 + math.cosh(rho)) * np.abs(v.imag)), rho)
