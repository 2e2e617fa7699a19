"""Concrete isometries of the two model spaces.

Tree isometries are reduced words acting on the Cayley tree by left
multiplication (the source of truth; no matrix representation). Plane
isometries are real 2x2 matrices of determinant 1, identified with their
negatives, acting by Mobius transformations; products are renormalized to
determinant 1 to damp float drift, except where the computed determinant
cancels to <= 0 (`_normalize_matrix`).

Schottky subgroups of the plane isometries come with paired disjoint disks
(arcs of the boundary circle) and a ping-pong certificate that decides
nesting exactly from the images of the arc endpoints, and proves from one
arc test per letter that no reduced word is displaced less than its
prefixes, which is what lets a plane orbit ball grow from its own points.
Everything here is scalar code: the module loads no numpy.
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


def _generator_map(generators):
    """{letter: isometry} over the alphabet of len(generators) free
    generators: a -> g1, A -> g1^-1, b -> g2, B -> g2^-1, ..."""
    gen_map = {}
    for c, g in zip(letters(len(generators))[::2], generators):
        gen_map[c], gen_map[c.upper()] = g, g.inverse()
    return gen_map


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


#: ``step_bound`` s > 0: every letter raises a reduced word's displacement
#: at i by at least s (`certify_ping_pong`)
SchottkyCertificate = namedtuple("SchottkyCertificate", "systole_bound attaining_word step_bound")
PingPongFailure = namedtuple("PingPongFailure", "reason witness", defaults=(None,))


def certify_ping_pong(desc):
    """Ping-pong certification of a Schottky description at the basepoint i.

    A disk is the half-plane over its arc of the boundary circle; D_c is
    the target of the letter c, a generator's target arc or an inverse's
    source arc. Three checks:

    1. The 2m disks are pairwise disjoint, and none holds i (each half
       width is below pi/2).
    2. Each generator maps the exterior of its source disk into its target
       disk, and its inverse the exterior of the target into the source. A
       Mobius map sends the exterior of an arc onto the arc between the
       images of its endpoints that holds the image of its center's
       antipode, so nesting is decided exactly from those three images.
       Margin policy: an endpoint image may lie up to NEST_TOL = 1e-12 rad
       outside the receiving arc, to absorb rounding; the standard disks
       are tight (their endpoint images fall on the target endpoints to
       about 3e-15 rad).
    3. The arc test: the Dirichlet half-plane {z : d(z, c i) <= d(z, i)} of
       each letter c meets no disk but D_c. In the disk model about i, let
       c i = tanh(l / 2) e^{i phi}, l = d(i, c i). The Busemann function of
       the ideal point at angle theta reads lim d(z, c i) - d(z, i) =
       log(cosh l - sinh l cos(theta - phi)) as z tends to it, which is <= 0
       exactly on the half-plane's arc |theta - phi| <= arccos tanh(l / 2).
       So the test asks every other disk to keep an angle psi_c >
       arccos tanh(l / 2) from phi, psi_c taken NEST_TOL short to cover the
       rounding of phi and l.

    Claim: d(i, w c i) >= d(i, w i) + s for every reduced word w c, with s =
    min over the letters of log(cosh l - sinh l cos psi_c) > 0, the
    certificate's `step_bound`. Proof, with the nesting exact up to the
    rounding NEST_TOL allows for. Apply w^-1: the claim is f(z) = d(z, c i)
    - d(z, i) >= s at z = w^-1 i. For w empty, f(i) = l >= s.
    Else, by induction on length, v i lies in D_{v_1} for every nonempty
    reduced word v with first letter v_1: i is in no disk, v_1 maps every
    point off D_{v_1^-1} into D_{v_1}, and the rest of v, reduced with a
    first letter other than v_1^-1, puts i in a disk other than
    D_{v_1^-1}, the disks being disjoint. So z lies in D_x, x the inverse
    of w's last letter, and x != c as w c is reduced. The geodesic ray from
    i through z stays in D_x past z (it crosses D_x's boundary once) and
    ends at an ideal point xi of D_x's arc, at least psi_c from phi. Along
    the ray f does not increase (d(z', c i) <= d(z, c i) + d(z, z')), so
    f(z) >= log(cosh l - sinh l cos(xi - phi)) >= s, as the Busemann
    function grows with the angle up to pi.

    So the displacement rises by at least s with each letter: the least
    displaced nonidentity elements are letters, and every prefix of a word
    within T is within T, which lets `PlaneAction.orbit_ball` extend only
    the words it keeps (it covers float64 rounding against s).

    On success returns the certificate: ``systole_bound`` the least
    letter displacement, ``attaining_word`` its letter (the first in
    string order among equals), ``step_bound`` s. On failure returns a
    PingPongFailure; a nesting failure's witness is (generator index, (the
    two endpoint images, the antipode's image)) in angles from the
    receiving arc's center, an arc-test failure's (letter, disk).
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
        if arcs[a][2].half_width >= math.pi / 2.0:
            return PingPongFailure("disk holds the basepoint i", arcs[a][:2])
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
    gen_map, alph = _generator_map(gens), letters(len(gens))
    letter_steps = []
    # a generator's letter sits at an even place of the alphabet, its target
    # the generator's; its inverse's target is the source
    for k, c in enumerate(alph):
        # composed from the identity, as an orbit ball composes its letters,
        # so that systole_bound is bitwise the ball's least displacement
        z = _mobius_image(_compose_mats(IDENTITY_PLANE.mat, gen_map[c].mat), 1j)
        ell = plane_distance(1j, z)
        w = (z - 1j) / (z + 1j)
        phi = math.atan2(w.imag, w.real)
        psi, disk = min(
            (abs(_angle_gap(phi, arc.center)) - arc.half_width - NEST_TOL, (side, i))
            for side, i, arc in arcs if (side, i) != (("tgt", "src")[k % 2], k // 2)
        )
        if psi <= math.acos(math.tanh(ell / 2.0)):
            return PingPongFailure("Dirichlet half-plane of letter %s meets a disk" % c, (c, disk))
        letter_steps.append((ell, c, math.log(math.cosh(ell) - math.sinh(ell) * math.cos(psi))))
    systole, best, _ = min(letter_steps)
    return SchottkyCertificate(systole, best, min(s for _, _, s in letter_steps))


def schottky_pair(L=4.0):
    """The standard two-generator Schottky description with translation
    lengths L: a dilation along the imaginary axis and its conjugate by the
    quarter rotation about i (axis from -1 to 1)."""
    g1 = PlaneIsometry.from_matrix(math.exp(L / 2.0), 0.0, 0.0, math.exp(-L / 2.0))
    th = math.pi / 4.0
    r = PlaneIsometry.from_matrix(math.cos(th), -math.sin(th), math.sin(th), math.cos(th))
    g2 = compose(compose(r, g1), r.inverse())
    return SchottkyDescription.with_standard_disks([g1, g2])
