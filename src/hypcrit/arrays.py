"""The array side of the model spaces: numpy distance kernels and the
plane's closed forms at the basepoint.

Vectorized distance rows come from `_distance_rows`: sorted root paths on
trees (`_TreePaths`), the arcsinh formula (`plane_distances`) on the
plane. A tree distance is depth_i + depth_j - 2 sep with the separation
in min form, sep = min(lcp L, depth_i, depth_j) (`_separated`), bitwise
the float form of `space._tree_separation`. Common-prefix lengths come
from trie node ids per level in sorted root-path order (`_TreePaths.lcp`),
O(width n) memory and no n x n table, so a `_TreePaths` also serves a
fixed net's repeated reads, by blocks of sorted rows against sorted
columns (`sorted_rows`, which `distances` reads too) and by lists of
pairs (`pairs`). Outside a block's span of sorted rows a prefix length is
the min of a per-row and a per-column running minimum
(`_TreePaths._spans`), so there the separation is one broadcast minimum
of two vectors (`_separated_outer`). Tables are read by blocks of at most
`_CELLS` float cells (`_block_rows`), so a block's temporaries stay the
same size however large the net.

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

#: float cells per block when distances are read by blocks of rows, 128 kB
#: per float temporary: a block holds as many rows as fit against the
#: columns it reads (`_block_rows`), so a witness verification, which reads
#: a block against the positions from its first row on, reads its
#: smallest block first, all a refuted candidate reads, and larger ones as
#: it goes. In `converge` runs of the 3-member tree-rescale family (2653-
#: to 3841-point nets), 2^14 peaked 1.2 MB lower than 2^16 and ran about
#: 10% faster; 2^12 and 2^13 saved at most 0.4 MB more and ran slower
_CELLS = 1 << 14


def _block_rows(columns):
    """Rows in a block of `columns` columns: as many as fit in _CELLS."""
    return max(1, _CELLS // max(columns, 1))


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


def _separated_outer(L, row, col, di, dj, out):
    """`_separated` where lcp = min(row[:, None], col), written to out.

    Then sep = min(min(row L, di), min(col L, dj)), one broadcast minimum
    of a per-row and a per-column vector, bitwise the same: fl(k L) is
    monotone in k, so fl(min(r, c) L) = min(fl(r L), fl(c L)).
    """
    di = di[:, None]
    np.minimum(np.minimum(row[:, None] * L, di) * 2.0, np.minimum(col * L, dj) * 2.0, out=out)
    np.subtract(di + dj, out, out=out)


class _TreePaths:
    """Root paths of a list of tree points, the one tree-distance kernel.

    The points come as arrays: vertex words, direction letters (None at a
    vertex) and float64 offsets. Each point's root path is a row of the
    letters of its word followed by its direction letter, padded to one
    more digit than the longest word. The rows are sorted once (`order`
    lists the points in sorted order, `rank` is its inverse); the
    common-prefix length of sorted rows a < b is then the minimum of the
    `adjacent` common-prefix lengths between them (Kasai et al., CPM
    2001), so no n x n x depth comparison is ever built.

    `nodes[k - 1]` numbers, in sorted order, the trie node of depth k
    above each point (k = 1 .. width): sorted points a < b share it iff
    min(adjacent[a:b]) >= k, so their common-prefix length is the number
    of levels whose node ids agree (`lcp`), the full width for a == b.
    That is O(width n) memory; blocks of rows read running minima
    (`_spans`).

    A distance is two steps: a common-prefix length (int8, so a width over
    127 is refused), then the float64 formula of `_separated` on the two
    depths. Every route reads the same per-point depths (`sorted_depth`
    holds them in sorted order), so a distance is bitwise the same
    whichever way its prefix length was found or its pair was selected,
    and bitwise symmetric in i and j. `distances` and `pairs` take point
    indices, `sorted_rows` sorted positions.
    """

    def __init__(self, edge_length, words, directions, offsets):
        lengths = np.array([len(w) for w in words], dtype=np.int64)
        width = int(lengths.max()) + 1 if len(words) else 1
        rows = _word_rows([w + (d or "") for w, d in zip(words, directions)], width)
        self._index(edge_length, rows, lengths, offsets)

    @classmethod
    def from_rows(cls, edge_length, rows, lengths, offsets):
        """The paths of points given as their root paths' letter rows (as
        `_word_rows` writes them, one digit wider than the longest word),
        word lengths and offsets: a net built on a vertex numbering writes
        them with no word per point."""
        paths = cls.__new__(cls)
        paths._index(edge_length, rows, lengths, offsets)
        return paths

    def _index(self, edge_length, rows, lengths, offsets):
        n, self.width = rows.shape
        self.L = float(edge_length)
        self.depth = lengths * self.L + np.asarray(offsets, dtype=float)
        if self.width > np.iinfo(np.int8).max:
            raise ValueError("prefix lengths up to %d overflow int8" % self.width)
        self.order = np.lexsort(rows.T[::-1])
        srt = rows[self.order]
        self.adjacent = _row_lcp(srt[1:], srt[:-1]).astype(np.int8)
        self.rank = np.empty(n, dtype=np.int64)
        self.rank[self.order] = np.arange(n)
        self.sorted_depth = self.depth[self.order]
        self.nodes = np.zeros((self.width, n), dtype=np.int32)
        levels = np.arange(1, self.width + 1)[:, None]
        np.cumsum(self.adjacent < levels, axis=1, out=self.nodes[:, 1:])

    def lcp(self, a, b):
        """int8 common-prefix lengths of the points at sorted positions a
        and b (index arrays or slices that broadcast together), one compare
        of node ids per level."""
        lcp = (self.nodes[0][a] == self.nodes[0][b]).view(np.int8)
        for ids in self.nodes[1:]:
            lcp += ids[a] == ids[b]
        return lcp

    def _spans(self, rows, start):
        """The sorted positions `rows`, the columns [left, right) between
        their least and greatest that take the per-level compare, and the
        running minima that give every other column's common-prefix length
        as min(row value, column value): (up, back) for the columns from
        `start` to left, (down, run) for those from right on.

        With lo and hi the least and greatest of `rows`, a row r and a
        column c >= hi share min(min(adjacent[r:hi]), min(adjacent[hi:c]))
        levels, and a column c < lo shares min(min(adjacent[c:lo]),
        min(adjacent[lo:r])), whatever the width. So only the columns
        between lo and hi take the per-level compare of `lcp`, and a block
        of rows that lie close in sorted order, as a contiguous block does,
        costs O(b n). Each running minimum starts from the width, which no
        prefix length exceeds.
        """
        n, adj = len(self.rank), self.adjacent
        rows = np.arange(*rows.indices(n)) if isinstance(rows, slice) else np.asarray(rows)
        lo, hi = int(rows.min()), int(rows.max())
        left, right = max(lo, start), max(hi, start)
        # up[r - lo] = min(adj[lo:r]), down[r - lo] = min(adj[r:hi]) and
        # run[c - hi] = min(adj[hi:c])
        up, down, run = (np.full(k, self.width, dtype=np.int8) for k in (hi - lo + 1, hi - lo + 1, n - hi))
        np.minimum.accumulate(adj[lo:hi], out=up[1:])
        np.minimum.accumulate(adj[lo:hi][::-1], out=down[-2::-1])
        np.minimum.accumulate(adj[hi:], out=run[1:])
        back = np.minimum.accumulate(adj[start:lo][::-1])[::-1]
        return rows, left, right, (up[rows - lo], back), (down[rows - lo], run[right - hi :])

    def distances(self, rows):
        """(len(rows), n) distances from the points at indices `rows`."""
        return self.sorted_rows(self.rank[rows])[:, self.rank]

    def sorted_rows(self, rows, cols=0):
        """(len(rows), len(cols)) distances from the sorted positions `rows`
        (an index array or a slice) to the sorted positions `cols` (an index
        array, or a number for the positions from it on).

        The columns outside the rows' span read their common-prefix lengths
        as running minima (`_spans`), so their distances take one broadcast
        minimum of a per-row and a per-column vector (`_separated_outer`)
        and no int8 table. An index array of columns is read in increasing
        order and put back in its own.
        """
        n, L, depth = len(self.rank), self.L, self.sorted_depth
        picked = isinstance(cols, np.ndarray)
        if picked and len(cols) > 1 and (cols[1:] < cols[:-1]).any():
            order = np.argsort(cols, kind="stable")
            got = self.sorted_rows(rows, cols[order])
            out = np.empty_like(got)
            out[:, order] = got
            return out
        start = (int(cols[0]) if len(cols) else n) if picked else cols
        rows, left, right, (up, back), (down, run) = self._spans(rows, start)
        if picked:
            i, j = np.searchsorted(cols, (left, right))
            before, mid, after = cols[:i], cols[i:j], cols[j:]
            back, run = back[before - start], run[after - right]
        else:
            i, j, cols = left - start, right - start, range(start, n)
            before, mid, after = slice(start, left), slice(left, right), slice(right, n)
        di = depth[rows]
        out = np.empty((len(rows), len(cols)))
        if i < j:
            out[:, i:j] = _separated(L, self.lcp(rows[:, None], mid), di[:, None], depth[mid])
        if i:
            _separated_outer(L, up, back, di, depth[before], out[:, :i])
        if j < len(cols):
            _separated_outer(L, down, run, di, depth[after], out[:, j:])
        return out

    def pairs(self, i, j):
        """Distances between points i[k] and j[k] for equal-length arrays
        of point indices."""
        a, b = self.rank[i], self.rank[j]
        return _separated(self.L, self.lcp(a, b), self.sorted_depth[a], self.sorted_depth[b])


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

    The table is filled a block of rows at a time, each block at most
    _CELLS cells, so the memory used beyond the n x n output is O(_CELLS)
    float cells plus O(width n) on trees.
    """
    n = len(points)
    rows = _distance_rows(space, points)
    d = np.empty((n, n))
    b = _block_rows(n)
    for start in range(0, n, b):
        d[start : start + b] = rows(np.arange(start, min(start + b, n)))
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
