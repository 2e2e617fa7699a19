"""The behaviour of hypcrit's records that reports, callers and tests read:
reprs inside witness texts, equality and hashing, immutability and the
validating constructors."""

from fractions import Fraction

import pytest

from hypcrit.boundary import TreeBoundary
from hypcrit.convergence import ContinuityConfig
from hypcrit.isometries import PlaneIsometry, TreeIsometry
from hypcrit.orbits import OrbitEntry, tree_action
from hypcrit.space import PlanePoint, TreePoint


def test_records_keep_repr_equality_immutability_and_validation():
    edge = TreePoint("ab", Fraction(1, 2), "a")
    plane = PlanePoint(complex(0.5, 2.0))
    iso = PlaneIsometry.from_matrix(2.0, 1.0, 1.0, 1.0)
    assert repr(edge) == "TreePoint(word='ab', offset=Fraction(1, 2), direction='a')"
    assert repr(plane) == "PlanePoint(z=(0.5+2j))"
    assert repr(iso) == "PlaneIsometry(mat=(2.0, 1.0, 1.0, 1.0))"

    entry = OrbitEntry("ab", edge, Fraction(2))
    twins = [
        (edge, TreePoint(word="ab", offset=Fraction(2, 4), direction="a"), TreePoint("ab")),
        (plane, PlanePoint(0.5 + 2j), PlanePoint(0.5 + 3j)),
        (iso, PlaneIsometry((2.0, 1.0, 1.0, 1.0)), iso.inverse()),
        (entry, OrbitEntry(word="ab", point=TreePoint("ab", Fraction(1, 2), "a"),
                           displacement=2, isometry=None), OrbitEntry("ba", edge, Fraction(2))),
    ]
    for record, same, other in twins:
        assert record == same and hash(record) == hash(same)
        assert record != other
    # a point is not the tuple of its fields
    assert edge != ("ab", Fraction(1, 2), "a")

    action = tree_action()
    assert action == action and action != tree_action()

    for record, name in ((edge, "word"), (plane, "z"), (iso, "mat"), (entry, "word"),
                         (TreeBoundary("a"), "depth"), (ContinuityConfig(), "ball_T")):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))

    bad = [
        lambda: TreePoint("aA"),  # not reduced
        lambda: TreePoint("a", Fraction(0), "b"),  # vertex with a direction
        lambda: TreePoint("a", Fraction(1, 2)),  # edge point without one
        lambda: TreePoint("a", Fraction(1, 2), "A"),  # backtracking edge
        lambda: PlanePoint(0.5 + 0j),
        lambda: TreeIsometry("bB"),
        lambda: TreeBoundary(""),
    ]
    for build in bad:
        with pytest.raises(ValueError):
            build()
