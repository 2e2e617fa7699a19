"""Shared exception types."""


class KindMismatchError(ValueError):
    """Points / isometries / spaces of different model kinds were mixed."""


class DepthError(ValueError):
    """A boundary approximant is too shallow for the requested comparison.

    Raised instead of guessing; the caller should deepen the approximant.
    """


class ClassificationError(ValueError):
    """A plane isometry is not hyperbolic (elliptic or parabolic)."""

    def __init__(self, isometry_type, trace):
        self.isometry_type = isometry_type
        self.trace = trace
        super().__init__(
            "not a hyperbolic isometry: %s (|trace| = %.6g)" % (isometry_type, abs(trace))
        )


class CertificationError(ValueError):
    """An action failed certification (ping-pong, systole threshold, ...)."""

    def of_member(self, param):
        """This failure, as the failure of the family member `param`."""
        return CertificationError("family member %s failed certification: %s" % (param, self))


class InsufficientDataError(ValueError):
    """A query needs more enumerated data than the given ball contains."""


class MeasureError(ValueError):
    """Invalid parameters for an atomic boundary measure."""


class MalformedWitnessError(ValueError):
    """An approximation witness is missing required table entries."""


class ScenarioError(ValueError):
    """A scenario is refused before it runs: a key, block or value its
    command cannot read."""


class NumericalLimitError(ValueError):
    """A float64 result would carry no meaning; raised instead of using it."""


class ParameterError(ValueError):
    """A parameter outside the domain of the computation asked for: a
    negative ball radius, a tree valence below 3 or odd, a nonpositive
    edge length, a generating threshold above 2D + 72*delta or a
    word-metric scale R at or below it."""
