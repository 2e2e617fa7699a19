"""Finite snapshots of (space, basepoint, group) triples, verification and
search of equivariant approximations, and the end-to-end continuity
experiment for the critical exponent.

A snapshot discretizes the data quantified over by an equivariant
eps-approximation: a net of the 1/eps-ball, the elements displacing the
basepoint by strictly less than 1/eps, and the action between them, one
element's row of net indices at a time (`row`), computed when read and
once per verification: no |elements| x |points| table is built. Verification recomputes every
defect from scratch; search only ever returns witnesses that re-verify,
and refutes a candidate at its first defect >= eps, evaluated in cost
order (basepoint, distortion block by block, surjectivity, equivariance).

`snapshot` picks the model once: a `_TreeSnapshot` or a `_PlaneSnapshot`,
each with its net's distances (`metric`), its rows and its half of the
word-wise witness (`wordwise_points`); the one other kind test pins the
continuity experiment's tree resolution. A tree snapshot reads only its
orbit ball's radius: net, elements and rows are index arithmetic on the
vertex list it numbers itself (`_tree_snapshot`), and its distances come
from the net's root paths (`arrays._TreePaths`, O(width n) memory, no
n x n table). A plane snapshot's net is its orbit ball's sample, its rows
are composed words looked up in the sample, and its distances a dense
table (`_DenseTable`). `verify_witness` reads either by
blocks of rows in the table's own order and by lists of pairs, so every
in-net defect is bitwise the one of the dense n x n computation; an image
that leaves the net takes one scalar isometry and distance on either
model.
"""

import math
from collections import Counter, namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property
from itertools import accumulate

import numpy as np

from .arrays import _block_rows, _TreePaths, _word_rows, pairwise_distances
from .errors import InsufficientDataError, KindMismatchError, MalformedWitnessError
from .isometries import apply_isometry
from .orbits import _refuse_past_cap
from .space import TREE, _GridPoint, _tree_point, distance
from .words import _ORDER, compose_words, letters, reduced_words_upto

#: eps rungs tried by the continuity experiment, largest first; the last
#: rung is the floor imposed by the resolution <= eps/4 precondition
EPS_LADDER = (4.0, 2.0, 1.0, 0.75, 0.5, 0.4375, 0.375, 0.3125, 0.28125, 0.25)


SnapElement = namedtuple("SnapElement", "word displacement")


class TripleSnapshot:
    """Finite net + element set of a triple at scale eps, and the action
    between them.

    points: net of the closed 1/eps-ball around the basepoint (tree: all
    offset-grid points; plane: the orbit sample itself). elements: group
    elements with displacement strictly below 1/eps. `row(g)` is computed
    when read: entry p is the index of the net point g points[p], or -1
    when that image leaves the ball (or, on the plane, the sampled net);
    no |elements| x |points| table is kept. `metric` holds the net's
    distances, read by sorted rows and by pairs.
    """

    def __init__(self, action, epsilon, covering_radius, points, elements, base_index):
        self.action = action
        self.space = action.space
        self.epsilon = float(epsilon)
        self.covering_radius = float(covering_radius)
        self.points = points
        self.elements = elements
        self.base_index = base_index


#: a tree snapshot's vertex numbering (`_tree_snapshot`): the net
#: vertices' ids by word; left multiplication, parent and last letter by
#: vertex id; net index by (net vertex id, direction, grid step); and each
#: net point's vertex id, direction and step
_VertexGrid = namedtuple("_VertexGrid", "vid lmul parent last pid pv pd ps")


class _TreeSnapshot(TripleSnapshot):
    """A tree snapshot, its net kept as grid data on the vertex numbering
    (`grid`): each point's vertex id, direction rank and offset in
    `resolution` steps (`steps`). Rows, word-wise matches and the net's
    distances are index arithmetic on it. Its points' vertex words
    (`words`), direction letters (`directions`, None at a vertex) and
    `points`, `TreePoint`s, are built when read, and the hot paths never
    read them."""

    def __init__(self, action, epsilon, resolution, elements, grid):
        points = _TreeNetPoints(grid, letters(action.space.rank), resolution)
        super().__init__(action, epsilon, float(resolution) / 2.0, points, elements, 0)
        self.resolution = resolution
        self.steps = grid.ps
        self.grid = grid

    @cached_property
    def words(self):
        return [self.points.vertex[v] for v in self.grid.pv.tolist()]

    @cached_property
    def directions(self):
        alpha = self.points.alpha
        return [alpha[d] if s else None for d, s in zip(self.grid.pd.tolist(), self.steps.tolist())]

    @cached_property
    def metric(self):
        """The net's `_TreePaths`, built on first use, with offsets
        float(s * resolution), the floats of the exact offsets. A point's
        root path is its vertex's letter row with its direction's rank
        written after the word, so no word is built per point."""
        g, vertex = self.grid, self.points.vertex
        off = np.array([float(s * self.resolution) for s in range(int(g.ps.max()) + 1)])
        length = np.array([len(w) for w in vertex], dtype=np.int64)[g.pv]
        rows = _word_rows(vertex, int(length.max()) + 1)[g.pv]
        edge = np.flatnonzero(g.ps)
        rows[edge, length[edge]] = g.pd[edge]
        return _TreePaths.from_rows(self.space.edge_length, rows, length, off[g.ps])

    def row(self, gi):
        """Net indices of the images of every net point under element gi.

        Its letters, right to left, move every point's vertex id by one
        left-multiplication row each. A point on an edge whose image
        vertex u ends in the inverse of the edge's direction lands on the
        edge above u, at the complementary step."""
        g = self.grid
        u = g.pv
        for c in reversed(self.elements[gi].word):
            u = g.lmul[_ORDER[c]][u]
        last = g.last[u]
        up = np.flatnonzero((last == (g.pd ^ 1)) & (g.ps > 0))
        outside, steps = len(g.pid) - 1, g.pid.shape[2] - 1
        row = g.pid[np.minimum(u, outside), g.pd, g.ps]
        row[up] = g.pid[g.parent[u[up]], last[up], steps - g.ps[up]]
        return row

    def wordwise_points(self, B):
        """f of the word-wise witness into B (`search_witness`), read by
        vertex id: each of A's net vertex words is looked up in B once."""
        # s of A's grid steps are s * m_B / m_A of B's (m steps per edge); a
        # non-integer count has no counterpart, and the point falls to a vertex
        ratio = (B.space.edge_length / B.resolution) / (self.space.edge_length / self.resolution)
        g, pid = self.grid, B.grid.pid
        words = list(g.vid)  # A's net vertex words, by vertex id
        v = np.array([B.grid.vid.get(w, -1) for w in words])[g.pv]
        sb, rem = np.divmod(g.ps.astype(np.int64) * ratio.numerator, ratio.denominator)
        # a vertex reads column 0 at step 0, as every column there; an edge
        # its letter's rank, and none past B's alphabet (the identity column
        # holds no edge point)
        match = (rem == 0) & (v >= 0) & (g.pd < pid.shape[1])
        j = np.full(len(v), -1, dtype=np.int64)
        j[match] = pid[v[match], g.pd[match], sb[match]]
        # no counterpart: the vertex of w, or of its longest prefix in B's
        # ball for a deep A-point
        fallback = np.array([B.net_vertex(w) for w in words])[g.pv]
        return np.where(j < 0, fallback, j).tolist()

    def net_vertex(self, w):
        """Net index of the vertex of w, or of its longest prefix among
        the net's vertices."""
        return int(self.grid.pid[_match_element(w, self.grid.vid), -1, 0])


class _PlaneSnapshot(TripleSnapshot):
    """A plane snapshot: its net is its orbit sample, each point labelled by
    the orbit word of its entry (`point_words`, indexed by `index`), with no
    discretization slack relative to that sample."""

    def __init__(self, action, epsilon, points, point_words, elements):
        self.index = {w: i for i, w in enumerate(point_words)}
        super().__init__(action, epsilon, 0.0, points, elements, self.index[""])
        self.point_words = point_words

    @cached_property
    def metric(self):
        return _DenseTable(pairwise_distances(self.space, self.points))

    def row(self, gi):
        """Net indices of the images of every net point under element gi:
        the index of the composed word, -1 where the sample lacks it."""
        g, index = self.elements[gi].word, self.index
        images = (index.get(compose_words(g, w), -1) for w in self.point_words)
        return np.fromiter(images, dtype=np.int32, count=len(self.point_words))

    def wordwise_points(self, B):
        """f of the word-wise witness into B (`search_witness`)."""
        return [_match_element(w, B.index) for w in self.point_words]


class _DenseTable:
    """A plane net's dense distance table, read as a `_TreePaths` is: by
    rows in its order, here the identity, and by pairs."""

    def __init__(self, table):
        self.table = table
        self.order = self.rank = np.arange(len(table))

    def sorted_rows(self, rows, cols=0):
        cols = cols if isinstance(cols, (slice, np.ndarray)) else slice(cols, None)
        return self.table[rows][:, cols]

    def pairs(self, i, j):
        return self.table[i, j]


class _TreeNetPoints(Sequence):
    """A tree snapshot's net as `TreePoint`s, each built when it is read
    from the vertex numbering: the net vertex words by id (`vertex`) and
    the alphabet by rank."""

    def __init__(self, grid, alpha, resolution):
        self.grid, self.alpha, self.resolution = grid, alpha, resolution
        self.vertex = list(grid.vid)

    def __len__(self):
        return len(self.grid.pv)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        g, s = self.grid, int(self.grid.ps[i])
        point = _GridPoint(self.vertex[g.pv[i]], s, self.alpha[g.pd[i]] if s else None)
        return _tree_point(point, self.resolution)


def _tree_snapshot(space, R, res_frac):
    """Element list and vertex numbering of a tree snapshot: (elements,
    `_VertexGrid`).

    The net holds every offset-grid point (spacing edge_length * res_frac,
    vertices included) of the closed ball of radius Rg * res, where Rg is
    the largest grid multiple not exceeding R; its order is canonical
    vertex order, each vertex followed by its edges in letter order, each
    edge by step. Vertices up to one level past the net, depth + 1 with
    depth = floor(R / edge_length), are numbered in canonical order, and
    refused past ELEMENT_CAP. The elements are the words among them
    displaced by strictly less than R, all of length <= depth.

    The numbering makes the action index arithmetic, exact because every
    point is (vertex id, direction, grid step): left-multiplication tables
    act on the vertex ids (`_TreeSnapshot.row`), and `pid` finds the net
    index of a (net vertex id, direction, step). The tables are read off
    the ids themselves: word t of level k >= 1 has first letter t //
    q^(k - 1), q = 2 rank - 1, and writes the rest as digits, each among
    the q letters that do not cancel the letter before it, in rank order
    (`words.reduced_word_at`). So c w is the word t' = c q^k + d q^(k - 1)
    + (t mod q^(k - 1)) of level k + 1, d the digit of w's first letter
    after c, unless c cancels that letter; and the parent of word t is word
    t // q of level k - 1, its last letter the digit t mod q after the
    parent's last.
    """
    L = space.edge_length
    steps = res_frac.denominator
    res = L * res_frac
    Rg = int(Fraction(R) / res)
    depth = Rg // steps
    nl = 2 * space.rank
    q = nl - 1
    sizes = [1] + [nl * q ** (k - 1) for k in range(1, depth + 2)]
    start = list(accumulate([0] + sizes))  # start[k]: the first id of level k
    V, Vn = start[depth + 2], start[depth + 1]  # V: the id of "deeper than depth + 1"
    # the words of a tree ball of depth + 1, one item each
    _refuse_past_cap(depth + 1, V)
    # every vertex id and net index is below the size of `pid`; `pid` row
    # Vn: no net vertex
    cells = (Vn + 1) * (nl + 1) * (steps + 1)
    if cells > np.iinfo(np.int32).max:
        raise ValueError("snapshot ids up to %d overflow int32" % cells)
    # lmul[c, v]: id of letter c times vertex v; row nl is the identity
    lmul = np.full((nl + 1, V + 1), V, dtype=np.int32)
    lmul[nl] = np.arange(V + 1)
    lmul[:nl, 0] = start[1] + np.arange(nl)
    parent = np.full(V + 1, Vn, dtype=np.int32)
    last = np.full(V + 1, nl, dtype=np.int32)  # nl: no last letter
    for k in range(1, depth + 2):
        t = np.arange(sizes[k])
        ids = start[k] + t
        lead, rest = np.divmod(t, q ** (k - 1))
        if k == 1:
            parent[ids], last[ids] = 0, t
            shorter = np.zeros_like(t)
        else:
            up, digit = np.divmod(t, q)
            parent[ids] = start[k - 1] + up
            last[ids] = digit + (digit >= (last[parent[ids]] ^ 1))
            # w less its first letter: its second letter leads
            digit, tail = np.divmod(rest, q ** (k - 2))
            shorter = start[k - 1] + (digit + (digit >= (lead ^ 1))) * q ** (k - 2) + tail
        for c in range(nl):
            longer = (start[k + 1] + c * q ** k + (lead - (lead > (c ^ 1))) * q ** (k - 1) + rest
                      if k <= depth else V)
            lmul[c, ids] = np.where(lead == c ^ 1, shorter, longer)

    # each net vertex has a slot, then one per letter but the inverse of
    # its last, holding that edge's points up to the ball's radius
    room = np.minimum(steps - 1, Rg - np.repeat(np.arange(depth + 1), sizes[: depth + 1]) * steps)
    counts = np.ones((Vn, nl + 1), dtype=np.int64)
    counts[:, 1:] = room[:, None]
    counts[:, 1:][np.arange(nl) == (last[:Vn, None] ^ 1)] = 0
    counts = counts.ravel()
    slot = np.repeat(np.arange(len(counts)), counts)
    pv, pd = np.divmod(slot, nl + 1)
    ps = np.arange(len(slot)) - (np.cumsum(counts) - counts)[slot] + (pd > 0)
    pv, pd, ps = (a.astype(np.int32) for a in (pv, np.maximum(pd - 1, 0), ps))
    # pid[v, d, s]: net index of the point s steps from the net vertex v
    # toward d; a vertex sits at s = 0 under every d, the identity column
    # nl included
    pid = np.full((Vn + 1, nl + 1, steps + 1), -1, dtype=np.int32)
    pid.reshape(-1)[(pv * (nl + 1) + pd) * (steps + 1) + ps] = np.arange(len(pv), dtype=np.int32)
    vertex = ps == 0
    pid[pv[vertex], :, 0] = np.nonzero(vertex)[0][:, None]

    words = reduced_words_upto(space.rank, depth)
    disp = [float(k * L) for k in range(depth + 1)]
    elements = [SnapElement(w, disp[len(w)]) for w in words if disp[len(w)] < R - 1e-12]
    return elements, _VertexGrid(dict(zip(words, range(Vn))), lmul, parent, last, pid, pv, pd, ps)


def _reaches(ball, R):
    """Whether an orbit ball is deep enough for a snapshot of radius R."""
    return float(ball.radius) >= R - 1e-12


def snapshot(action, ball, epsilon, resolution=None):
    """Discretize (space, basepoint, group) at scale eps from an orbit ball.

    A tree resolution defaults to edge/16 for edge <= 1 and edge/24
    otherwise; it must satisfy resolution <= eps/4 so the discretization
    error stays subordinate to eps, and be edge/m for an integer m, so that
    the net is closed under the action. A plane snapshot takes no
    resolution (ValueError): its net is its orbit sample. The ball must
    reach radius 1/eps.

    A tree snapshot reads only the ball's radius (`_tree_snapshot` numbers
    its own words); a plane snapshot's net and elements are the ball's
    entries within 1/eps.
    """
    R = 1.0 / float(epsilon)
    if not _reaches(ball, R):
        raise InsufficientDataError(
            "ball radius %r below snapshot radius %r" % (float(ball.radius), R)
        )
    space = action.space
    if space.kind == TREE:
        L = space.edge_length
        if resolution is None:
            res_frac = Fraction(1, 16) if L <= 1 else Fraction(1, 24)
        else:
            res_frac = Fraction(resolution) / L
        res = L * res_frac
        if float(res) > float(epsilon) / 4.0 + 1e-12:
            raise ValueError("resolution %s too coarse for eps=%s" % (res, epsilon))
        if res_frac.numerator != 1:
            raise ValueError("resolution %s does not divide the edge length %s" % (res, L))
        return _TreeSnapshot(action, epsilon, res, *_tree_snapshot(space, R, res_frac))
    if resolution is not None:
        raise ValueError("a plane snapshot takes no resolution: its net is its orbit sample")
    sel = [e for e in ball.entries if float(e.displacement) <= R + 1e-9]
    elements = [
        SnapElement(e.word, float(e.displacement))
        for e in sel
        if float(e.displacement) < R - 1e-12
    ]
    return _PlaneSnapshot(action, epsilon, [e.point for e in sel], tuple(e.word for e in sel),
                          elements)


#: the judged defects, in the order a witness is judged
_JUDGED = ("basepoint", "distortion", "surjectivity", "phi_equivariance", "psi_equivariance")


class WitnessDefects(namedtuple("WitnessDefects", "basepoint distortion surjectivity "
                                                  "phi_equivariance psi_equivariance discretization")):
    __slots__ = ()

    def worst(self):
        """The largest judged defect; NaN marks one not evaluated."""
        return max(v for v in (getattr(self, name) for name in _JUDGED) if not math.isnan(v))


ApproximationWitness = namedtuple("ApproximationWitness", "f phi psi epsilon defects",
                                  defaults=(None,))
#: a refuted candidate: `reason` names the defect that reached eps and
#: `defects` holds the values evaluated up to it, math.nan after it
SearchFailure = namedtuple("SearchFailure", "reason defects")


def _check_table(name, table, length, limit):
    """Refuse a table unless it holds `length` indices in [0, limit), naming the first bad one."""
    if len(table) != length:
        raise MalformedWitnessError(
            "%s table has %d entries, expected %d" % (name, len(table), length)
        )
    a = np.asarray(table)
    if a.ndim == 1 and np.issubdtype(a.dtype, np.integer) and (
            not len(a) or 0 <= a.min() and a.max() < limit):
        return
    for i, v in enumerate(table):
        if v is None or np.ndim(v) or not (0 <= int(v) < limit):
            raise MalformedWitnessError("%s table entry %d is invalid: %r" % (name, i, v))


def verify_witness(A, B, w, stop=None):
    """Recompute the five defect maxima of the witness and judge validity:
    (valid, WitnessDefects).

    Stored defects are never trusted. Surjectivity is checked against B's
    net with its covering radius added; the remaining conditions are
    evaluated on the nets exactly, with the combined covering radius of
    both nets reported separately as discretization slack (read, not
    evaluated). Valid iff every defect is strictly below w.epsilon. The
    defects are evaluated in cost order, `_witness_defects`. Without a
    stop every defect is evaluated, valid witness or not; with one, the
    first whose value reaches it ends the judgement, and the defects after
    it are left math.nan (`search_witness` stops at eps).

    Memory: each snapshot's `metric` (on trees O(width n) trie node ids, on
    the plane the dense table of at most about 1.4k points), the action
    rows equivariance keeps between reads of each, every row computed once
    per call (`_equivariance_defects`), and temporaries of at most
    `arrays._CELLS` cells each, with their common-prefix lengths.
    Distortion and surjectivity run in the tables' own order (sorted root
    paths on trees, the identity on the plane): the witness is mapped once
    to fs = B.rank[f[A.order]]. A block of sorted rows of A from a first
    row `start` is read against the positions from `start` on in both
    nets, A's rows against A's and B's rows at fs(block) against B's at
    fs(start:). It takes as many rows as fit in `arrays._CELLS` cells
    against the positions left (`arrays._block_rows`): the first block,
    the one a refuted candidate reads, is as small as the net is large,
    and the blocks grow as the positions left shrink. Surjectivity reads
    only B's positions that no point maps to, as an image is at distance
    0.0 from itself: blocks of them against the images. The basepoint
    defect and the in-net equivariance pairs are read as lists of pairs of
    net indices. Every entry is bitwise the entry of the dense
    `pairwise_distances` table and every defect is a max or min of entries
    over the same pairs, so the defects are bitwise those of the dense
    n x n computation.

    Distortion reads only the columns b >= the block's first row: both
    tables are bitwise symmetric (`arrays._separated` is symmetric in the
    two points; the plane formula takes |z_i - z_j| and y_i y_j), so
    |DB(fs_a, fs_b) - DA(a, b)| is too, and every pair (a, b) with b < a is
    read as (b, a) in b's block; surjectivity reads the distance from an
    image to a position no point maps to from the position's row.
    """
    _check_table("f", w.f, len(A.points), len(B.points))
    _check_table("phi", w.phi, len(A.elements), max(len(B.elements), 1))
    _check_table("psi", w.psi, len(B.elements), max(len(A.elements), 1))
    got = dict.fromkeys(_JUDGED, math.nan)
    for name, value in _witness_defects(A, B, np.asarray(w.f, dtype=np.int64), w):
        got[name] = value
        if stop is not None and value >= stop:
            break
    defects = WitnessDefects(**got, discretization=A.covering_radius + B.covering_radius)
    return defects.worst() < float(w.epsilon), defects


def _witness_defects(A, B, f, w):
    """Yield (name, value) of the judged defects, cheapest first: the
    basepoint defect; the running distortion maximum after each block of
    rows; surjectivity; phi and psi equivariance. The last value yielded
    under each name is that defect (`verify_witness` explains the blocks)."""
    DA, DB = A.metric, B.metric
    yield "basepoint", float(DB.pairs(f[[A.base_index]], [B.base_index])[0])
    # the witness in table order: A's position a goes to B's position fs[a]
    fs = DB.rank[f[DA.order]]
    distortion, start = 0.0, 0
    while start < len(fs):
        rows = slice(start, start + _block_rows(len(fs) - start))
        gap = DB.sorted_rows(fs[rows], fs[start:])
        gap -= DA.sorted_rows(rows, start)
        distortion = max(distortion, float(np.abs(gap, out=gap).max()))
        yield "distortion", distortion
        start = rows.stop
    # an image is at distance 0.0 from itself, so only the positions no
    # point maps to can raise surjectivity above 0.0, each by its least
    # distance to an image (the tables are symmetric)
    mapped = np.zeros(len(B.points), dtype=bool)
    mapped[fs] = True
    images, unmapped = np.flatnonzero(mapped), np.flatnonzero(~mapped)
    cover, b = 0.0, _block_rows(len(images))
    for k in range(0, len(unmapped), b):
        cover = max(cover, float(DB.sorted_rows(unmapped[k : k + b], images).min(axis=1).max()))
    yield "surjectivity", cover + B.covering_radius
    phi, psi = _equivariance_defects(A, B, f, w)
    yield "phi_equivariance", phi
    yield "psi_equivariance", psi


def _equivariance_defects(A, B, f, w):
    """(phi, psi) equivariance defects. Phi: max d_B(f(g x), phi(g) f(x))
    over g in Sigma(A), x with g x in the A-ball. Psi: max d_B(f(psi(g) x),
    g f(x)) over g in Sigma(B), x with psi(g) x in the A-ball.

    One loop over A's elements reads each row once: element i's row serves
    the phi term of i and the psi term of every g with psi(g) = i, and a
    row of B is kept from its first read to its last, so a word-wise
    witness, which pairs each element with its own word, holds one row of
    each snapshot at a time. Both maxima are over the same terms as two
    passes would read."""
    back = [[] for _ in A.elements]
    for j, i in enumerate(w.psi):
        back[i].append(j)
    reads = Counter(w.phi) + Counter(range(len(B.elements)))
    kept = {}

    def b_row(k):
        if k not in kept:
            kept[k] = B.row(k)
        reads[k] -= 1
        return kept.pop(k) if not reads[k] else kept[k]

    phi = psi = 0.0
    for i in range(len(A.elements)):
        row_a = A.row(i)
        phi = max(phi, _equivariance_term(B, f, row_a, w.phi[i], b_row(w.phi[i])))
        for j in back[i]:
            psi = max(psi, _equivariance_term(B, f, row_a, j, b_row(j)))
    return phi, psi


def _equivariance_term(B, f, row_a, bi, row_b):
    """max d_B(f(row_a[x]), row_b[f(x)]) over the net points x that row_a
    keeps in the A-ball, row_b being the row of B's element bi (0.0 where
    none is kept). Images inside B's net are read through the pair
    formula; those that leave it are measured one by one
    (`_offnet_defect`)."""
    xs = np.nonzero(row_a >= 0)[0]
    if not len(xs):
        return 0.0
    lhs = f[row_a[xs]]
    rhs = row_b[f[xs]]
    inside = rhs >= 0
    worst = float(B.metric.pairs(lhs[inside], rhs[inside]).max()) if inside.any() else 0.0
    if inside.all():
        return worst
    return max(worst, _offnet_defect(B, bi, f[xs[~inside]], lhs[~inside]))


def _offnet_defect(snap, el_idx, xs, ys):
    """max_k d(g xs[k], ys[k]) for the element g = snap.elements[el_idx],
    net points xs whose images leave the net, and net points ys: one
    `apply_isometry` and one `distance` per point. A tree distance is an
    exact Fraction, rounded once to a float."""
    pts = snap.points
    iso = snap.action.isometry(snap.elements[el_idx].word)
    return max(
        float(distance(snap.space, pts[y], apply_isometry(snap.space, iso, pts[x])))
        for x, y in zip(xs.tolist(), ys.tolist())
    )


def _word_index(snap):
    return {el.word: i for i, el in enumerate(snap.elements)}


def _match_element(word, index):
    """index[word], or the value of its longest prefix in index (index
    holds the empty word)."""
    w = word
    while w not in index:
        w = w[:-1]
    return index[w]


def search_witness(A, B, epsilon):
    """Build a candidate witness, judge it, and return it only if valid.

    The snapshots must be of the same model kind (KindMismatchError
    otherwise); they share word labels (tree vs rescaled tree, or members
    of a parametric family), so the tables are built word-wise: f maps each
    point to the same-word point with the offset carried over on the
    offset grid, and phi/psi match element words (falling back to the
    longest available prefix for shell-straddling elements).

    The candidate is judged by `verify_witness` with stop = eps: the
    first defect, in cost order, that reaches eps ends the search, so a
    distortion block, not the whole n_A x n_B table, refutes a far-off
    net. The verdict is the same as without a stop, since a witness is
    valid iff every defect is below eps, and a valid witness carries every
    defect, bitwise. A failure is a SearchFailure naming the first judged
    defect that reaches eps.
    """
    w = _wordwise_witness(A, B, epsilon)
    valid, defects = verify_witness(A, B, w, stop=w.epsilon)
    if valid:
        return ApproximationWitness(w.f, w.phi, w.psi, w.epsilon, defects)
    return SearchFailure(next(n for n in _JUDGED if getattr(defects, n) >= w.epsilon), defects)


def _wordwise_witness(A, B, epsilon):
    """The unverified word-wise candidate of `search_witness`."""
    if type(A) is not type(B):
        raise KindMismatchError(
            "no word-wise witness between %s and %s snapshots" % (A.space.kind, B.space.kind)
        )
    f = A.wordwise_points(B)
    bw = _word_index(B)
    aw = _word_index(A)
    phi = tuple(_match_element(el.word, bw) for el in A.elements)
    psi = tuple(_match_element(el.word, aw) for el in B.elements)
    return ApproximationWitness(tuple(f), phi, psi, float(epsilon))


# ---------------------------------------------------------------------------
# continuity experiment


ContinuityRow = namedtuple("ContinuityRow", "param eps h_hat residual K")


class ContinuityReport(namedtuple("ContinuityReport", "rows h_limit C passed notes",
                                  defaults=("",))):
    """The rows of `run_continuity_experiment`, the limit's exponent
    estimate and C, the drift slope fitted on the finite-eps rows.
    `passed` is finite eps, K <= K_bound and non-increasing eps on every
    row; C is reported but not judged."""

    __slots__ = ()

    def to_csv(self):
        lines = ["param,eps,h_hat,residual,K"]
        for r in self.rows:
            lines.append(
                "%.10g,%.10g,%.10g,%.10g,%.10g" % (r.param, r.eps, r.h_hat, r.residual, r.K)
            )
        return "\n".join(lines) + "\n"


class ContinuityConfig(namedtuple(
    "ContinuityConfig", "ball_T window eps_ladder h_tolerance K_bound param_scale rank_window",
    defaults=(10.0, (4.0, 10.0), EPS_LADDER, 0.01, 4.0, None, None),
)):
    """Settings of `run_continuity_experiment`; members supply their own
    targets. `param_scale` is a callable param -> factor on ball_T and
    window. `rank_window`, optional, is (lo_count, hi_count): the window is
    taken between the displacements at these cumulative counts, so every
    family member is estimated over literally the same group elements
    (smooth in the family parameter, which absolute windows are not)."""

    __slots__ = ()


def run_continuity_experiment(make_member, schedule, limit_param, config=ContinuityConfig()):
    """Continuity of the critical exponent along a parametric family.

    make_member(param) must return a `TreeAction` or a `PlaneAction`,
    which holds its certificate; a member that fails certification aborts
    the experiment with the parameter named.
    Each row reports the smallest ladder eps at which search_witness finds
    a verified witness against the limit snapshot, the member's exponent
    estimate, its residual against the member's `closed_form_exponent` (a
    plane member has none: the limit estimate), and its equidistribution
    constant measured at that target (else at the member's estimate).

    The verdict needs a finite eps on every row, K <= K_bound on every row
    and eps non-increasing along the schedule. C, the largest
    (|h_n - h_limit| - h_tolerance) / eps_n over the finite-eps rows, is
    reported but not judged: it is fitted on the rows it would be tested
    on, so |h_n - h_limit| <= h_tolerance + C * eps_n holds there by
    construction.
    """
    from .entropy import equidistribution_constant, estimate_critical_exponent, rank_quantile_estimate
    from .errors import CertificationError
    from .orbits import enumerate_orbit_ball

    def member_pipeline(param):
        try:
            action = make_member(param)
        except CertificationError as exc:
            raise exc.of_member(param) from exc
        scale = float(config.param_scale(param)) if config.param_scale else 1.0
        ball = enumerate_orbit_ball(action, config.ball_T * scale)
        counts = ball.count_samples
        if config.rank_window:
            est = rank_quantile_estimate(ball, config.rank_window)
        else:
            win = (config.window[0] * scale, config.window[1] * scale)
            est = estimate_critical_exponent(counts, win)
        lo, hi = est.window
        href = est.h_hat if action.closed_form_exponent is None else action.closed_form_exponent
        K = equidistribution_constant(
            [(t, n) for t, n in counts if lo - 1e-9 <= t <= hi + 1e-9], href
        ).K_measured
        return action, ball, est, K

    limit_action, limit_ball, limit_est, limit_K = member_pipeline(limit_param)
    limit_snaps = {}

    def make_snapshot(action, ball, eps):
        # word-wise matching needs the same offset-grid fraction on every
        # member, so the tree resolution is pinned to edge/24 throughout
        if action.space.kind == TREE:
            return snapshot(action, ball, eps, resolution=action.space.edge_length / 24)
        return snapshot(action, ball, eps)

    def limit_snapshot(eps):
        if eps not in limit_snaps:
            limit_snaps[eps] = make_snapshot(limit_action, limit_ball, eps)
        return limit_snaps[eps]

    rows = []
    for param in schedule:
        action, ball, est, K = member_pipeline(param)
        achieved = math.inf
        for eps in sorted(config.eps_ladder, reverse=True):
            if not _reaches(ball, 1.0 / eps):
                continue
            # every rung is tried: a shell-straddling radius can fail while
            # smaller rungs still succeed; a failing rung stops at its first
            # defect >= eps, on a far-off net about one distortion block
            got = search_witness(make_snapshot(action, ball, eps), limit_snapshot(eps), eps)
            if isinstance(got, ApproximationWitness):
                achieved = eps
        target = action.closed_form_exponent
        target = limit_est.h_hat if target is None else target
        rows.append(
            ContinuityRow(float(param), achieved, est.h_hat, abs(est.h_hat - target), K)
        )
    C = 0.0
    for r in rows:
        drift = abs(r.h_hat - limit_est.h_hat)
        if drift > config.h_tolerance and math.isfinite(r.eps):
            C = max(C, (drift - config.h_tolerance) / r.eps)
    passed = all(math.isfinite(r.eps) for r in rows)
    passed = passed and all(r.K <= config.K_bound + 1e-9 for r in rows)
    passed = passed and all(
        rows[i].eps >= rows[i + 1].eps - 1e-12 for i in range(len(rows) - 1)
    )
    notes = "limit K=%.6g" % limit_K
    return ContinuityReport(tuple(rows), limit_est.h_hat, C, passed, notes)
