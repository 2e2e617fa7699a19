"""The array side of the model spaces: numpy distance kernels and the
plane's closed forms at the basepoint.

Vectorized distance rows come from `_distance_rows`: sorted root paths on
trees (`_TreePaths`), the arcsinh formula (`plane_distances`) on the
plane. A tree distance is depth_i + depth_j - 2 sep with the separation
in min form, sep = min(lcp L, depth_i, depth_j) (`_separated`), bitwise
the float form of `space._tree_separation`. `DistanceTable` keeps a fixed
net's distances for repeated reads by rows or pairs: on trees the int8
common-prefix table in sorted root-path order, filled by trie blocks
(`_TreePaths.prefix_table`), on the plane the dense table.

Rays from the basepoint i need no ray points: Gromov products of ray
points at a common depth (`plane_ray_product`) and distances to such rays
(`plane_ray_distance`) have closed forms from the hyperbolic law of
cosines, in `math` for single calls and in numpy over arrays of ideal
points. `space.ray_point`, `space.gromov_product` and
`space.plane_dist_to_ray`, which build the ray's line, are their
independent reference.
"""

import math

import numpy as np

from .space import TREE, plane_distance
from .words import _ORDER

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
