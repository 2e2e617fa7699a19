"""Desk-scale numerical laboratory for critical exponents of group actions
on Gromov-hyperbolic model spaces.

Two concrete model spaces are supported: weighted regular trees (exact
rational arithmetic, the oracle side) and the hyperbolic upper half-plane
(floating point, tolerance 1e-9). On top of them the package enumerates
orbit balls, estimates critical exponents and covering entropy, builds
atomic Patterson-Sullivan proxy measures on the boundary, audits the
standard explicit hyperbolic-geometry inequalities, and runs continuity
experiments for the critical exponent under equivariant pointed
Gromov-Hausdorff convergence of actions.
"""

__version__ = "0.1.0"

#: public names re-exported by the package, by defining module; each
#: module is imported on the first read of one of its names or of the
#: module itself, so a subcommand loads only the modules it runs
_EXPORTS = {
    "space": (
        "ModelSpace", "TreePoint", "PlanePoint", "Ray", "distance", "geodesic_point",
        "gromov_product",
    ),
    "isometries": (
        "PlaneIsometry", "SchottkyDescription", "TreeIsometry", "apply_isometry",
        "certify_ping_pong", "compose", "schottky_pair", "translation_length",
    ),
    "orbits": (
        "PlaneAction", "PlaneBall", "TreeAction", "TreeBall", "enumerate_orbit_ball",
        "measure_systole", "schottky_action", "tree_action",
    ),
    "entropy": (
        "EntropyEstimate", "covering_entropy_estimate", "equidistribution_constant",
        "estimate_critical_exponent", "poincare_partial",
    ),
    "boundary": (
        "check_ahlfors_regularity", "check_quasiconformality", "check_shadow_ball_lemma",
        "limit_set_sample", "patterson_sullivan_atoms", "visual_distance",
    ),
    "geometry_checks": ("SamplingPlan", "check_geodesic_lemmas"),
    "convergence": (
        "ContinuityConfig", "run_continuity_experiment", "search_witness", "snapshot",
        "verify_witness",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "arrays", "errors", "words")
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    from importlib import import_module

    if name in _SUBMODULES:
        return import_module("." + name, __name__)
    if name in _MODULE_OF:
        return getattr(import_module("." + _MODULE_OF[name], __name__), name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(__all__))
