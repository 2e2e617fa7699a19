"""Per-layer tracer for the hypcrit benchmark.

The tracer wraps named public functions of the ``hypcrit`` modules from
outside the package; nothing under ``src/`` changes. For each function it
replaces the defining module attribute and every ``from ... import``
binding of the same function object in any loaded ``hypcrit`` module with
one wrapper. A call is therefore recorded whichever name it arrives
through, including imports executed inside a function body (they read the
module attribute at call time).

Every wrapped call is a span. A span's self time is its duration minus the
time covered by the wrapped calls made inside it, so the self times of all
wrapped functions add up to the traced wall time less what ran outside
every span (``trace.unattributed_s``).

Only coarse functions are wrapped. Per-point primitives (``distance``,
``apply_isometry``, ``generalized_ball_contains``, ...) run millions of
times per pass; their time is part of the self time of the function that
loops over them.
"""

import functools
import importlib
import sys
import time
from dataclasses import dataclass

#: module -> public functions wrapped in the traced run
WRAPPED = {
    "cli": [
        "load_scenario", "build_action", "screen_plane_systole", "write_report",
        "cmd_entropy", "cmd_boundary", "cmd_converge", "cmd_verify",
    ],
    "orbits": [
        "enumerate_orbit_ball", "tree_action", "schottky_action", "measure_systole",
        "check_generating", "check_word_metric_comparison", "word_metric_distances",
    ],
    "convergence": [
        "snapshot", "search_witness", "verify_witness", "run_continuity_experiment",
    ],
    "space": ["pairwise_distances", "distances_to_point"],
    "entropy": [
        "estimate_critical_exponent", "poincare_partial", "covering_entropy_estimate",
        "covering_number", "packing_number",
        "greedy_covering_count", "check_packing_chain", "check_packing_growth",
        "equidistribution_constant", "recheck_equidistribution",
        "check_entropy_lower_bound",
    ],
    "boundary": [
        "patterson_sullivan_atoms", "ball_mass", "shadow_mass",
        "check_ahlfors_regularity", "check_quasiconformality",
        "check_shadow_ball_lemma", "limit_set_sample", "qc_hull_sample",
        "tree_cylinder_cells",
    ],
    "geometry_checks": ["check_geodesic_lemmas"],
    "isometries": ["certify_ping_pong", "schottky_pair"],
    "words": ["reduced_words_upto"],
}


@dataclass
class FunctionStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Aggregated spans and counters of one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}  # "module.function" -> FunctionStats
        self.counters = {}  # counter name -> number, fed by observers
        self.missing = []  # wrapped names the package no longer defines
        self._open = []  # child time accumulated by each open span
        self._patches = []

    def count(self, name, value=1):
        self.counters[name] = self.counters.get(name, 0) + value

    def maximum(self, name, value):
        self.counters[name] = max(self.counters.get(name, value), value)

    def wrap(self, name, fn, observe=None):
        """Return fn recording its calls under name.

        observe(tracer, args, kwargs, result) runs after the span closes,
        so its cost lands in the caller's self time, not in fn's.
        """
        stats = self.stats.setdefault(name, FunctionStats())
        open_spans, clock = self._open, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                children = open_spans.pop()
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - children
                if open_spans:
                    open_spans[-1] += dt
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def install(self, wrapped=None):
        """Patch every binding of each wrapped function in the hypcrit modules.

        wrapped maps a module to function names and defaults to WRAPPED.
        """
        for module_name, names in (WRAPPED if wrapped is None else wrapped).items():
            module = importlib.import_module("hypcrit." + module_name)
            for fname in names:
                if fname.startswith("_"):
                    raise ValueError("refusing to trace private helper %s" % fname)
                qual = "%s.%s" % (module_name, fname)
                fn = getattr(module, fname, None)
                if not callable(fn):
                    self.missing.append(qual)
                    continue
                traced = self.wrap(qual, fn, OBSERVERS.get(qual))
                for mod in _hypcrit_modules():
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, traced)
                            self._patches.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    def self_total(self):
        return sum(s.self_s for s in self.stats.values())


def _hypcrit_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "hypcrit" or name.startswith("hypcrit."))
    ]


# ---------------------------------------------------------------------------
# counters read from arguments and results of wrapped calls


def _orbit_ball(tr, args, kwargs, ball):
    tr.count("orbits.entries", ball.count)


def _snapshot(tr, args, kwargs, snap):
    tr.count("convergence.snapshot.points", len(snap.points))
    tr.count("convergence.snapshot.table_cells", len(snap.elements) * len(snap.points))


def _search_witness(tr, args, kwargs, result):
    tr.count("convergence.witness_found", type(result).__name__ == "ApproximationWitness")


def _pairwise(tr, args, kwargs, result):
    points = args[1] if len(args) > 1 else kwargs["points"]
    tr.maximum("space.pairwise_distances.max_n", len(points))


def _ball_mass(tr, args, kwargs, result):
    tr.count("boundary.ball_mass.decided_sum", result[1])


def _ps_atoms(tr, args, kwargs, measure):
    tr.count("boundary.atoms", len(measure.atoms))


def _lemmas(tr, args, kwargs, report):
    tr.count("geometry_checks.configs", sum(r.configs for r in report.rows))


OBSERVERS = {
    "orbits.enumerate_orbit_ball": _orbit_ball,
    "convergence.snapshot": _snapshot,
    "convergence.search_witness": _search_witness,
    "space.pairwise_distances": _pairwise,
    "boundary.ball_mass": _ball_mass,
    "boundary.patterson_sullivan_atoms": _ps_atoms,
    "geometry_checks.check_geodesic_lemmas": _lemmas,
}

#: per-layer metrics taken from spans: (function, statistic)
SPAN_METRICS = [
    ("orbits.enumerate_orbit_ball", "self_s"),
    ("orbits.enumerate_orbit_ball", "calls"),
    ("convergence.snapshot", "self_s"),
    ("convergence.snapshot", "calls"),
    ("convergence.verify_witness", "self_s"),
    ("convergence.search_witness", "calls"),
    ("space.pairwise_distances", "self_s"),
    ("space.distances_to_point", "self_s"),
    ("entropy.greedy_covering_count", "self_s"),
    ("entropy.greedy_covering_count", "calls"),
    ("entropy.covering_entropy_estimate", "self_s"),
    ("boundary.ball_mass", "self_s"),
    ("boundary.ball_mass", "calls"),
    ("boundary.shadow_mass", "self_s"),
    ("boundary.check_quasiconformality", "self_s"),
    ("boundary.patterson_sullivan_atoms", "self_s"),
    ("boundary.limit_set_sample", "self_s"),
    ("boundary.check_shadow_ball_lemma", "self_s"),
    ("geometry_checks.check_geodesic_lemmas", "self_s"),
    ("isometries.certify_ping_pong", "self_s"),
    ("isometries.certify_ping_pong", "calls"),
    ("cli.build_action", "self_s"),
]

#: per-layer counters fed by OBSERVERS: name -> wrapped function feeding it
COUNTER_METRICS = {
    "orbits.entries": "orbits.enumerate_orbit_ball",
    "convergence.snapshot.points": "convergence.snapshot",
    "convergence.snapshot.table_cells": "convergence.snapshot",
    "space.pairwise_distances.max_n": "space.pairwise_distances",
    "boundary.atoms": "boundary.patterson_sullivan_atoms",
    "geometry_checks.configs": "geometry_checks.check_geodesic_lemmas",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer metrics of a finished traced run, as name -> (value, unit).

    A metric of a wrapped function the package no longer defines has the
    value None (missing), never 0.
    """
    out = {}
    for fname, stat in SPAN_METRICS:
        unit = "s" if stat == "self_s" else "count"
        s = tracer.stats.get(fname)
        out["%s.%s" % (fname, stat)] = (None if s is None else getattr(s, stat), unit)
    for name, fname in COUNTER_METRICS.items():
        value = None if fname in tracer.missing else tracer.counters.get(name, 0)
        out[name] = (value, "count")
    search = tracer.stats.get("convergence.search_witness")
    out["convergence.witness_found_ratio"] = (
        None if search is None
        else _ratio(tracer.counters.get("convergence.witness_found", 0), search.calls),
        "ratio",
    )
    mass = tracer.stats.get("boundary.ball_mass")
    out["boundary.ball_mass.decided_fraction"] = (
        None if mass is None
        else _ratio(tracer.counters.get("boundary.ball_mass.decided_sum", 0.0), mass.calls),
        "ratio",
    )
    return out
