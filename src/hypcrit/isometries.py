"""Concrete isometries of the two model spaces.

Tree isometries are reduced words acting on the Cayley tree by left
multiplication (the source of truth; no matrix representation). Plane
isometries are real 2x2 matrices of determinant 1, identified with their
negatives, acting by Mobius transformations; products are renormalized to
determinant 1 to damp float drift, except where the computed determinant
cancels to <= 0 (`_normalize_matrix`).

Schottky subgroups of the plane isometries come with paired disjoint disks
(arcs of the boundary circle) and a ping-pong certificate that decides
nesting exactly from the images of the arc endpoints. numpy serves only
the levels of plane orbit balls: the stacked-row kernels (`_compose_rows`,
`_images_of_i`, `_word_levels`) import it where they run, so scalar
isometry work, ping-pong certification included, loads none.
"""

import math
from collections import namedtuple

from .errors import ClassificationError, KindMismatchError, NumericalLimitError
from .space import PLANE, TREE, PlanePoint, TreePoint, plane_distance
from .words import (
    compose_words,
    cyclic_reduce,
    invert_word,
    is_reduced,
    letters,
)

MAT_TOL = 1e-12
#: how far (rad) `certify_ping_pong` lets an arc endpoint's image fall
#: outside the arc that receives it
NEST_TOL = 1e-12
#: word lengths surveyed for the systole bound and the per-letter gain
WORD_HORIZON = 6
GAIN_HORIZON = 4


class TreeIsometry:
    __slots__ = ("word",)

    def __init__(self, word):
        if not is_reduced(word):
            raise ValueError("tree isometry word must be reduced")
        self.word = word

    @property
    def kind(self):
        return TREE

    def inverse(self):
        return TreeIsometry(invert_word(self.word))

    @property
    def is_identity(self):
        return self.word == ""


def _normalize_matrix(m, unimodular=False):
    """m divided by sqrt(ad - bc), with the canonical sign.

    A product or inverse of determinant-1 matrices (`unimodular`) has det
    1 up to rounding, so a computed det <= 0 there is cancellation (ad and
    bc agree to the last bit from entries of about 1e8 on, words of length
    10 at L = 4) and the exact det 1 is used. An input matrix with det <=
    0 raises ValueError, an overflowing one NumericalLimitError.
    """
    a, b, c, d = m
    det = a * d - b * c
    if not math.isfinite(det):
        raise NumericalLimitError("matrix entries overflow float64")
    if det <= 0:
        if not unimodular:
            raise ValueError("matrix must have positive determinant, got %g" % det)
        det = 1.0
    s = math.sqrt(det)
    a, b, c, d = a / s, b / s, c / s, d / s
    # canonical sign: first entry of (a, b, c, d) with |entry| > tol positive
    for entry in (a, b, c, d):
        if abs(entry) > MAT_TOL:
            if entry < 0:
                a, b, c, d = -a, -b, -c, -d
            break
    return (a, b, c, d)


class PlaneIsometry(namedtuple("PlaneIsometry", "mat")):
    """``mat`` is (a, b, c, d), det = 1, canonical sign."""

    __slots__ = ()

    @staticmethod
    def from_matrix(a, b, c, d):
        return PlaneIsometry(_normalize_matrix((float(a), float(b), float(c), float(d))))

    @property
    def kind(self):
        return PLANE

    @property
    def trace(self):
        return self.mat[0] + self.mat[3]

    def inverse(self):
        a, b, c, d = self.mat
        return PlaneIsometry(_normalize_matrix((d, -b, -c, a), unimodular=True))

    @property
    def is_identity(self):
        a, b, c, d = self.mat
        return abs(a - 1) < 1e-9 and abs(d - 1) < 1e-9 and abs(b) < 1e-9 and abs(c) < 1e-9

    def boundary_apply(self, x):
        """Action on the boundary (real line plus infinity)."""
        a, b, c, d = self.mat
        if x == math.inf:
            return a / c if abs(c) > MAT_TOL else math.inf
        den = c * x + d
        if abs(den) < 1e-300:
            return math.inf
        return (a * x + b) / den


IDENTITY_PLANE = PlaneIsometry.from_matrix(1.0, 0.0, 0.0, 1.0)


def compose(g, h):
    """g after h (so apply(compose(g,h), p) == apply(g, apply(h, p)))."""
    if g.kind != h.kind:
        raise KindMismatchError("cannot compose isometries of different kinds")
    if g.kind == TREE:
        return TreeIsometry(compose_words(g.word, h.word))
    return PlaneIsometry(_compose_mats(g.mat, h.mat))


def _compose_mats(m1, m2):
    """The normalized matrix of `compose` on (a, b, c, d) tuples."""
    a1, b1, c1, d1 = m1
    a2, b2, c2, d2 = m2
    return _normalize_matrix(
        (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2, c1 * a2 + d1 * c2, c1 * b2 + d1 * d2),
        unimodular=True,
    )


def apply_isometry(space, iso, p):
    """Apply an isometry to a model point."""
    if space.kind != iso.kind:
        raise KindMismatchError("isometry kind does not match space kind")
    if space.kind == TREE:
        if not isinstance(p, TreePoint):
            raise KindMismatchError("expected tree point")
        w = compose_words(iso.word, p.word)
        if p.offset == 0:
            return TreePoint(w)
        far = compose_words(iso.word, compose_words(p.word, p.direction))
        if len(far) == len(w) + 1:
            return TreePoint(w, p.offset, far[-1])
        # the image edge is canonically anchored at the other endpoint
        return TreePoint(far, space.edge_length - p.offset, w[-1])
    if not isinstance(p, PlanePoint):
        raise KindMismatchError("expected plane point")
    return PlanePoint(_mobius_image(iso.mat, p.z))


def _mobius_image(mat, z):
    """Coordinate of the image of the plane coordinate z under mat."""
    a, b, c, d = mat
    w = (a * z + b) / (c * z + d)
    return complex(w.real, max(w.imag, 1e-300))


def _compose_rows(g, h):
    """`compose` row by row over stacked (n, 4) matrix arrays g and h.

    Every entry takes the same correctly rounded float operations in the
    same order as the scalar `compose` and `_normalize_matrix`, so the rows
    are bitwise their matrices; a cancelled det <= 0 is the exact det 1
    there too.
    """
    import numpy as np

    a1, b1, c1, d1 = g.T
    a2, b2, c2, d2 = h.T
    m = np.stack(
        (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2, c1 * a2 + d1 * c2, c1 * b2 + d1 * d2), axis=1
    )
    a, b, c, d = m.T
    det = a * d - b * c
    if not np.isfinite(det).all():
        raise NumericalLimitError("matrix entries overflow float64")
    det[det <= 0] = 1.0
    m /= np.sqrt(det)[:, None]
    # canonical sign: first entry with |entry| > tol positive (a row of
    # determinant 1 has one)
    lead = m[np.arange(len(m)), (np.abs(m) > MAT_TOL).argmax(axis=1)]
    m[lead < 0] *= -1.0
    return m


def _images_of_i(m):
    """`apply_isometry` of each (n, 4) matrix row at the basepoint i, as a
    list of complex coordinates, bitwise.

    CPython's complex arithmetic is written out: a * 1j + b is
    (a * 0 - 0 + b, a + 0), and the quotient is Smith's division, which
    scales by the denominator's real part when |Re| >= |Im| and by its
    imaginary part otherwise.
    """
    import numpy as np

    a, b, c, d = m.T
    nr, ni = (a * 0.0 - 0.0) + b, a + 0.0
    dr, di = (c * 0.0 - 0.0) + d, c + 0.0
    by_re = np.abs(dr) >= np.abs(di)
    # both quotients are taken and one is kept, so the other may overflow
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = np.where(by_re, di / dr, dr / di)
        den = np.where(by_re, dr + di * r, dr * r + di)
        re = np.where(by_re, nr + ni * r, nr * r + ni) / den
        im = np.where(by_re, ni - nr * r, ni * r - nr) / den
    return list(map(complex, re.tolist(), np.maximum(im, 1e-300).tolist()))


def _generator_map(generators):
    """{letter: isometry} over the alphabet of len(generators) free
    generators: a -> g1, A -> g1^-1, b -> g2, B -> g2^-1, ..."""
    gen_map = {}
    for c, g in zip(letters(len(generators))[::2], generators):
        gen_map[c], gen_map[c.upper()] = g, g.inverse()
    return gen_map


def _word_levels(gen_map, alph):
    """Iterator over the levels k = 1, 2, ... of the reduced words over
    alph: each level is (words, mats), the words of length k in canonical
    order (each word of level k - 1 extended by the letters that may
    follow it, in alphabet order) and their stacked (n, 4) matrix rows. A
    row is its parent's row composed with the generator of its last letter
    (`_compose_rows`), bitwise the left-to-right scalar `compose` product.
    Level k is built when it is requested.
    """
    import numpy as np

    gens = np.array([gen_map[c].mat for c in alph])
    # indices of the letters that may follow each letter
    nexts = np.array([[j for j, d in enumerate(alph) if d != c.swapcase()] for c in alph])
    words, mats = [""], np.array([IDENTITY_PLANE.mat])
    # row i of a level is mats[parent[i]] times the generator of alph[letter[i]]
    parent, letter = np.zeros(len(alph), dtype=int), np.arange(len(alph))
    while True:
        words = [words[i] + alph[j] for i, j in zip(parent.tolist(), letter.tolist())]
        mats = _compose_rows(mats[parent], gens[letter])
        yield words, mats
        parent = np.repeat(np.arange(len(words)), len(alph) - 1)
        letter = nexts[letter].ravel()


def translation_length(space, iso):
    """Stable displacement of a hyperbolic isometry.

    Tree words translate along their axis by the cyclically reduced length.
    A plane matrix with |trace| > 2 translates by 2 arccosh(|trace|/2);
    elliptic and parabolic matrices are rejected with a classification
    error rather than returning 0 or NaN.
    """
    if space.kind != iso.kind:
        raise KindMismatchError("isometry kind does not match space kind")
    if space.kind == TREE:
        return len(cyclic_reduce(iso.word)) * space.edge_length
    tr = abs(iso.trace)
    if tr > 2.0 + 1e-9:
        return 2.0 * math.acosh(tr / 2.0)
    if tr > 2.0 - 1e-9:
        raise ClassificationError("parabolic", iso.trace)
    raise ClassificationError("elliptic", iso.trace)


# ---------------------------------------------------------------------------
# boundary circle bookkeeping: the real line is mapped to the unit circle by
# the Cayley transform x -> (x - i)/(x + i); arcs are (center angle, half
# width) pairs, with infinity at angle 0.


def boundary_angle(x):
    if x == math.inf:
        return 0.0
    w = complex(x, -1.0) / complex(x, 1.0)
    return math.atan2(w.imag, w.real)


def angle_to_boundary(theta):
    if abs(theta) < 1e-15:
        return math.inf
    return -1.0 / math.tan(theta / 2.0)


def _angle_gap(t1, t2):
    d = (t1 - t2) % (2.0 * math.pi)
    if d > math.pi:
        d -= 2.0 * math.pi
    return d


#: an arc of the boundary circle: its center angle and half width (rad)
BoundaryArc = namedtuple("BoundaryArc", "center half_width")


def fixed_points(iso):
    """(repelling, attracting) boundary fixed points of a hyperbolic matrix."""
    a, b, c, d = iso.mat
    tr = a + d
    if abs(tr) <= 2.0:
        raise ClassificationError("elliptic" if abs(tr) < 2 else "parabolic", tr)
    disc = math.sqrt(tr * tr - 4.0)
    if abs(c) > MAT_TOL:
        x1 = ((a - d) + disc) / (2.0 * c)
        x2 = ((a - d) - disc) / (2.0 * c)
        # attracting fixed point has |c x + d| > 1
        if abs(c * x1 + d) > 1.0:
            return x2, x1
        return x1, x2
    # c == 0: fixed points are infinity and b/(d - a)
    other = b / (d - a) if abs(d - a) > MAT_TOL else math.inf
    if abs(a / d) > 1.0:
        return other, math.inf
    return math.inf, other


def standard_disks(iso):
    """Source/target arcs for a hyperbolic generator.

    In the axis coordinate xi = (x - rep)/(att - x) (xi = x - rep when
    att = inf, 1/(att - x) when rep = inf) the generator is the dilation
    xi -> e^L xi, with the repelling fixed point at 0 and the attracting
    one at infinity. The source disk is {|xi| <= e^{-L/2}} and the target
    {|xi| >= e^{L/2}}. The generator maps the exterior of its source arc
    onto the interior of its target arc; the inverse swaps the roles.
    Their widths, about e^{-L/2}, round to 0 from L = 75 on:
    NumericalLimitError.
    """
    rep, att = fixed_points(iso)
    L = 2.0 * math.acosh(abs(iso.trace) / 2.0)
    s = math.exp(-L / 2.0)

    def from_axis(xi):
        if rep == math.inf:
            return att - 1.0 / xi
        if att == math.inf:
            return rep + xi
        return (rep + xi * att) / (1.0 + xi)

    def arc_through(scale, inside_point):
        t1, t2 = boundary_angle(from_axis(scale)), boundary_angle(from_axis(-scale))
        tc = boundary_angle(inside_point)
        # the arc between t1, t2 containing tc
        half = abs(_angle_gap(t1, t2)) / 2.0
        mid = t2 + _angle_gap(t1, t2) / 2.0
        if abs(_angle_gap(tc, mid)) > half:
            mid = mid + math.pi
            half = math.pi - half
        return BoundaryArc(math.atan2(math.sin(mid), math.cos(mid)), half)

    source = arc_through(s, rep)
    target = arc_through(1.0 / s, att)
    if source.half_width <= 0 or target.half_width <= 0:
        raise NumericalLimitError("standard disks of length %.6g below float64 angles" % L)
    return source, target


class SchottkyDescription(namedtuple("SchottkyDescription", "generators disks")):
    """``generators``: a PlaneIsometry per free generator; ``disks``:
    ((source_arc, target_arc), ...) aligned with them."""

    __slots__ = ()

    @staticmethod
    def with_standard_disks(gens):
        return SchottkyDescription(tuple(gens), tuple(standard_disks(g) for g in gens))


SchottkyCertificate = namedtuple(
    "SchottkyCertificate", "systole_bound attaining_word per_letter_gain displacement_table",
    defaults=(None,),
)
PingPongFailure = namedtuple("PingPongFailure", "reason witness", defaults=(None,))


def certify_ping_pong(desc):
    """Ping-pong certification of a Schottky description.

    Checks that the 2m disks are pairwise disjoint and that each generator
    maps the exterior of its source disk into its target disk (and its
    inverse the exterior of the target into the source). A Mobius map
    sends the exterior of an arc onto the arc between the images of its
    endpoints that holds the image of its center's antipode, so nesting is
    decided exactly from those three images. Margin policy: an endpoint
    image may lie up to NEST_TOL = 1e-12 rad outside the receiving arc, to
    absorb rounding; the standard disks are tight (their endpoint images
    fall on the target endpoints to about 3e-15 rad).

    On success returns a certificate carrying a systole lower bound at the
    basepoint i (minimum displacement over all reduced words of length <=
    WORD_HORIZON, with positive measured per-letter displacement gain over
    words of length <= GAIN_HORIZON). On failure returns a PingPongFailure;
    a nesting failure's witness is (generator index, (the two endpoint
    images, the antipode's image)) in angles from the receiving arc's center.
    """
    gens = desc.generators
    if len(gens) < 2:
        raise ValueError("ping-pong needs at least 2 generators")
    arcs = []
    for i, (src, tgt) in enumerate(desc.disks):
        if src.half_width <= 0 or tgt.half_width <= 0:
            raise ValueError("malformed disk: nonpositive radius")
        arcs.append(("src", i, src))
        arcs.append(("tgt", i, tgt))
    for a in range(len(arcs)):
        for b in range(a + 1, len(arcs)):
            gap = abs(_angle_gap(arcs[a][2].center, arcs[b][2].center))
            if gap <= arcs[a][2].half_width + arcs[b][2].half_width:
                return PingPongFailure(
                    "disks not disjoint", (arcs[a][:2], arcs[b][:2])
                )
    for i, (g, (src, tgt)) in enumerate(zip(gens, desc.disks)):
        for h, a, b, who in ((g, src, tgt, "generator"), (g.inverse(), tgt, src, "inverse")):
            x1, x2, xa = (
                _angle_gap(boundary_angle(h.boundary_apply(angle_to_boundary(t))), b.center)
                for t in (a.center - a.half_width, a.center + a.half_width, a.center + math.pi)
            )
            # b is shorter than the circle, so the image arc lies in b iff its
            # ends do and it runs between them inside b, not through b's antipode
            ends_in = max(abs(x1), abs(x2)) <= b.half_width + NEST_TOL
            if not (ends_in and min(x1, x2) < xa < max(x1, x2)):
                return PingPongFailure("nesting violated by " + who, (i, (x1, x2, xa)))
    # displacement survey at the basepoint i, level by level in canonical
    # order: each word is its parent's matrix composed with its last letter
    gen_map, alph = _generator_map(gens), letters(len(gens))
    follow = {c: [(d, gen_map[d].mat) for d in alph if d != c.swapcase()] for c in alph}
    follow[""] = [(d, gen_map[d].mat) for d in alph]
    disp = {"": 0.0}
    level = [("", IDENTITY_PLANE.mat)]
    for _ in range(WORD_HORIZON):
        level = [(w + c, _compose_mats(m, g)) for w, m in level for c, g in follow[w[-1:]]]
        disp.update((w, plane_distance(1j, _mobius_image(m, 1j))) for w, m in level)
    systole, best_word = min((v, w) for w, v in disp.items() if w)
    gain = min(
        disp[w] - disp[w[:-1]]
        for w in disp
        if 1 <= len(w) <= GAIN_HORIZON
    )
    if gain <= 0:
        return PingPongFailure("no positive per-letter displacement gain", best_word)
    return SchottkyCertificate(
        systole_bound=systole,
        attaining_word=best_word,
        per_letter_gain=gain,
        displacement_table=disp,
    )


def schottky_pair(L=4.0):
    """The standard two-generator Schottky description with translation
    lengths L: a dilation along the imaginary axis and its conjugate by the
    quarter rotation about i (axis from -1 to 1)."""
    g1 = PlaneIsometry.from_matrix(math.exp(L / 2.0), 0.0, 0.0, math.exp(-L / 2.0))
    th = math.pi / 4.0
    r = PlaneIsometry.from_matrix(math.cos(th), -math.sin(th), math.sin(th), math.cos(th))
    g2 = compose(compose(r, g1), r.inverse())
    return SchottkyDescription.with_standard_disks([g1, g2])
