"""Batch experiment driver.

Scenarios are JSON documents (schema 1) naming an action and one block
per subcommand; the same scenario file can drive several subcommands.
Reports are plain CSV/JSON with sorted keys and LF endings, so the same
scenario and seed produce byte-identical output. A check's report section
is its record's fields (`_record`), so a field added to a record reaches
the report with no edit here; a `witness` field is written only for a
failed check or under --emit-witnesses. The exit code is 0 iff
every check enabled by the scenario passed. A subcommand imports `orbits`
and the audit modules (`entropy`, `boundary`, `geometry_checks`,
`convergence`) where it calls them, so a run loads only the modules it
uses. `entropy`, `boundary` and `verify` build their action first, and
`converge` its limit member, so an input the scalar screen rejects loads
no numpy.
"""

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from functools import cache
from itertools import islice
from pathlib import Path

# hypcrit makes no BLAS call, but OpenBLAS starts a busy-waiting worker
# thread for each further core when numpy loads: on a 2-core machine
# `import numpy` took 0.27 s of CPU for 0.16 s of wall time, against 0.16 s
# and 0.16 s with one thread. A value set by the user wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import (
    CertificationError,
    ClassificationError,
    InsufficientDataError,
    MeasureError,
    NumericalLimitError,
    ParameterError,
    ScenarioError,
)
from .isometries import (
    PingPongFailure,
    PlaneIsometry,
    SchottkyDescription,
    apply_isometry,
    certify_ping_pong,
    compose,
    schottky_pair,
    translation_length,
)
from .space import TREE, ModelSpace, PLANE_TOL, distance
from .words import is_word_over

SCHEMA = 1
DEFAULT_MIN_SYSTOLE = 0.5


# ---------------------------------------------------------------------------
# scenario loading and action certification


def load_scenario(path):
    """The scenario in the file at `path` or, where `path` is a bare name
    (no directory part) that names no file, the bundled scenario of that
    name, with or without its `.scn`."""
    p = Path(path)
    if p.exists():
        sc = json.loads(p.read_text(encoding="utf-8"))
    elif str(path) != p.name:
        raise FileNotFoundError("no scenario file %s" % path)
    else:
        # bundled scenario by bare name; importlib.resources loads only here
        from importlib import resources

        name = p.name if p.name.endswith(".scn") else p.name + ".scn"
        ref = resources.files("hypcrit") / "scenarios" / name
        if not ref.is_file():
            raise FileNotFoundError("no scenario file %s" % path)
        sc = json.loads(ref.read_text(encoding="utf-8"))
    if sc.get("schema") != SCHEMA:
        raise ScenarioError("unsupported scenario schema %r" % sc.get("schema"))
    if "action" not in sc:
        raise ScenarioError("scenario needs an `action` key")
    return sc


def screen_plane_systole(gens, threshold):
    """Short-word displacement screen, run before any ping-pong work.

    Words of length <= 2 over the generators and their inverses are
    displaced at the basepoint. A numerically fixed basepoint sends the
    element to translation_length for classification (elliptic elements
    are rejected there); a positive displacement below the threshold is a
    systole rejection.
    """
    space = ModelSpace.plane()
    base = space.basepoint
    elems = []
    for g in gens:
        elems.extend([g, g.inverse()])
    words = list(elems) + [compose(a, b) for a in elems for b in elems]
    best = None
    for g in words:
        if g.is_identity:
            continue
        d = float(distance(space, base, apply_isometry(space, g, base)))
        if d <= PLANE_TOL:
            translation_length(space, g)  # raises ClassificationError
            continue
        if best is None or d < best:
            best = d
    if best is not None and best < threshold:
        raise CertificationError(
            "systole below class threshold: shortest measured displacement "
            "%.6g < %.6g" % (best, threshold)
        )


#: the keys each action kind reads; any other key is refused
ACTION_KEYS = {"tree": {"kind", "valence", "edge_length"}, "schottky": {"kind", "L", "min_systole"},
               "plane": {"kind", "generators", "min_systole"}}


#: the keys each subcommand block, and each block nested in one, reads
BLOCK_KEYS = {
    "entropy": {"T", "window", "K_h", "poincare_s", "h_target", "h_tolerance",
                "K_bound", "covering"},
    "covering": {"r", "window"},
    "boundary": {"T", "s", "h", "cylinder_depths", "cells_per_depth", "qc_depth",
                 "min_displacement", "max_centers", "scales", "qc_scale", "qc_word", "qc_bound"},
    "verify": {"checks", "delta_override", "unsafe", "configs", "radius", "shadow_ball",
               "generating", "word_metric", "packing_growth", "packing_chain"},
    "shadow_ball": {"T", "min_displacement", "max_samples", "ts", "pair_count"},
    "generating": {"T", "threshold"},
    "word_metric": {"T", "R"},
    "packing_growth": {"T", "min_displacement", "pair_count", "ts", "r"},
    "packing_chain": {"T", "max_points", "r"},
    "converge": {"family", "vary", "schedule", "limit", "ball_T", "window", "eps_ladder",
                 "rank_window", "h_tolerance", "K_bound", "cauchy"},
    "cauchy": {"min_shrink_ratio"},
}
#: the keys each block must have; a boundary block also needs the keys of
#: its action's kind, and a verify block the block of each check it lists
#: but `lemmas`
REQUIRED_KEYS = {
    "action": ("kind",), "entropy": ("T", "window"), "covering": ("r", "window"),
    "boundary": ("T", "s", "h"), "tree boundary": ("cylinder_depths",),
    "plane boundary": ("min_displacement", "scales"), "verify": ("checks",),
    "shadow_ball": ("T", "min_displacement", "ts"), "generating": ("T",), "word_metric": ("T", "R"),
    "packing_growth": ("T", "min_displacement", "ts", "r"), "packing_chain": ("T", "r"),
    "converge": ("family", "vary", "schedule", "limit"),
}
#: the checks `verify` runs; each but `lemmas` reads the block of its name
CHECKS = ("lemmas", "shadow_ball", "generating", "word_metric", "packing_growth", "packing_chain")


def refuse_unknown_keys(block, known, what):
    unknown = sorted(set(block) - known)
    if unknown:
        raise ScenarioError("%s has unknown keys %s" % (what, ", ".join(map(repr, unknown))))


def require_keys(block, keys, what):
    for key in keys:
        if key not in block:
            raise ScenarioError("%s needs a `%s` key" % (what, key))


def build_action(spec):
    require_keys(spec, REQUIRED_KEYS["action"], "action block")
    kind = spec["kind"]
    if kind not in ACTION_KEYS:
        raise ScenarioError("unknown action kind %r" % kind)
    refuse_unknown_keys(spec, ACTION_KEYS[kind], "%s action" % kind)
    if kind == "tree":
        from .orbits import tree_action

        return tree_action(
            valence=int(spec.get("valence", 4)),
            edge_length=Fraction(spec.get("edge_length", 1)),
        )
    threshold = float(spec.get("min_systole", DEFAULT_MIN_SYSTOLE))
    if kind == "schottky":
        desc = schottky_pair(float(spec.get("L", 4.0)))
        screen_plane_systole(desc.generators, threshold)
    else:
        gens = [
            PlaneIsometry.from_matrix(*(float(v) for v in row))
            for row in spec["generators"]
        ]
        screen_plane_systole(gens, threshold)
        desc = SchottkyDescription.with_standard_disks(gens)
    cert = certify_ping_pong(desc)
    if isinstance(cert, PingPongFailure):
        raise CertificationError("ping-pong certification failed: %s" % (cert,))
    from .orbits import schottky_action

    return schottky_action(desc, cert)


# ---------------------------------------------------------------------------
# report plumbing


def write_report(outdir, name, text):
    path = Path(outdir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def dump_json(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def counts_csv(counts):
    lines = ["t,count"]
    for t, n in counts:
        lines.append("%.12g,%d" % (float(t), n))
    return "\n".join(lines) + "\n"


def _block(scenario, name):
    if name not in scenario:
        raise ScenarioError("scenario %r has no %r block" % (scenario.get("name"), name))
    return _checked(scenario[name], name)


def _checked(block, name):
    """`block`, after refusing any key outside BLOCK_KEYS[name] and any
    missing key of REQUIRED_KEYS[name], in it and in each block nested in
    it."""
    refuse_unknown_keys(block, BLOCK_KEYS[name], "%s block" % name)
    require_keys(block, REQUIRED_KEYS.get(name, ()), "%s block" % name)
    for key in sorted(block.keys() & BLOCK_KEYS.keys()):
        _checked(block[key], key)
    return block


def _record(rec, args):
    """The report section of the record `rec`: its fields but those that
    are None, each nested record its own section and each tuple a list. A
    `witness` stays only on a failed check or under --emit-witnesses."""
    def value(v):
        if hasattr(v, "_asdict"):
            return _record(v, args)
        return [value(x) for x in v] if isinstance(v, tuple) else v

    return {
        k: value(v) for k, v in rec._asdict().items()
        if v is not None and (k != "witness" or args.emit_witnesses or not rec.passed)
    }


def _seed(scenario, args):
    seed = args.seed if args.seed is not None else scenario.get("seed")
    if seed is None:
        raise ScenarioError("seeds are mandatory: set --seed or a scenario seed")
    return int(seed)


# ---------------------------------------------------------------------------
# subcommands


def cmd_entropy(scenario, args, outdir):
    block = _block(scenario, "entropy")
    action = build_action(scenario["action"])

    from .entropy import (
        check_entropy_lower_bound,
        covering_entropy_estimate,
        equidistribution_constant,
        estimate_critical_exponent,
        poincare_partial,
        recheck_equidistribution,
    )
    from .orbits import enumerate_orbit_ball, measure_systole

    ball = enumerate_orbit_ball(action, block["T"])
    counts = ball.count_samples
    window = tuple(float(v) for v in block["window"])
    est = estimate_critical_exponent(counts, window)

    win_counts = [
        (t, n) for t, n in counts if window[0] - 1e-9 <= float(t) <= window[1] + 1e-9
    ]
    h_used = float(block.get("K_h", est.h_hat))
    eq = equidistribution_constant(win_counts, h_used)
    recheck = recheck_equidistribution(win_counts, h_used, eq.K_measured * (1 + 1e-12))
    lb_ok, lb = check_entropy_lower_bound(
        est.h_hat, action.declared_delta, action.declared_codiameter
    )
    sys_rep = measure_systole(action, ball)

    report = {
        "name": scenario.get("name", ""),
        "ball": {"T": float(ball.radius), "count": ball.count},
        "estimate": est.as_dict(),
        "equidistribution": {**eq._asdict(), "recheck": recheck},
        "lower_bound": {"bound": lb, "passed": lb_ok},
        "systole": {
            "min_displacement": float(sys_rep.min_displacement),
            "word": sys_rep.attaining_word,
        },
        "poincare_partial": {
            "%.12g" % s: poincare_partial(ball, float(s))
            for s in block.get("poincare_s", [])
        },
    }
    checks = [lb_ok, recheck]
    if "h_target" in block:
        tol = float(block.get("h_tolerance", 0.01))
        drift = abs(est.h_hat - float(block["h_target"]))
        report["h_target"] = {
            "target": float(block["h_target"]),
            "drift": drift,
            "tolerance": tol,
            "passed": drift <= tol,
        }
        checks.append(drift <= tol)
    if "K_bound" in block:
        k_ok = eq.K_measured <= float(block["K_bound"]) + 1e-9
        report["equidistribution"]["bound"] = float(block["K_bound"])
        report["equidistribution"]["bound_passed"] = k_ok
        checks.append(k_ok)
    if "covering" in block:
        cov = block["covering"]
        cest = covering_entropy_estimate(
            action,
            ball,
            float(cov["r"]),
            tuple(float(v) for v in cov["window"]),
        )
        report["covering_entropy"] = cest.as_dict()
    passed = all(checks)
    report["passed"] = passed
    write_report(outdir, "counts.csv", counts_csv(counts))
    write_report(outdir, "estimate.json", dump_json(report))
    return passed


def cmd_boundary(scenario, args, outdir):
    block = _block(scenario, "boundary")
    action = build_action(scenario["action"])
    where = "%s boundary" % action.space.kind
    require_keys(block, REQUIRED_KEYS[where], where + " block")
    qc_word = block.get("qc_word", "a")
    if not is_word_over(qc_word, action.alphabet):
        raise ScenarioError("boundary block's `qc_word` %r is not a nonempty reduced word over %s"
                            % (qc_word, "".join(action.alphabet)))

    from .boundary import (
        check_ahlfors_regularity,
        check_quasiconformality,
        cylinder_scale,
        limit_set_sample,
        patterson_sullivan_atoms,
        tree_cylinder_cells,
    )
    from .orbits import enumerate_orbit_ball

    ball = enumerate_orbit_ball(action, block["T"])
    measure = patterson_sullivan_atoms(action, ball, float(block["s"]))
    h = float(block["h"])

    if action.space.kind == TREE:
        centers, scales = [], []
        per = int(block.get("cells_per_depth", 12))
        for depth in block["cylinder_depths"]:
            all_cells = tree_cylinder_cells(action, int(depth))
            step = max(1, len(all_cells) // per)
            centers.extend(z for z, _ in all_cells[::step][:per])
            scales.append(cylinder_scale(action, int(depth)))
        scales = sorted(set(scales), reverse=True)
        qc_cells = tree_cylinder_cells(action, int(block.get("qc_depth", 3)))
    else:
        lim = limit_set_sample(action, ball, float(block["min_displacement"]))
        centers = list(islice(lim, int(block.get("max_centers", 40))))
        scales = [float(v) for v in block["scales"]]
        rho = float(block.get("qc_scale", scales[-1]))
        qc_cells = [(z, rho) for z in centers]

    ahl = check_ahlfors_regularity(action, measure, h, centers, scales)
    qc = check_quasiconformality(action, measure, h, qc_word, qc_cells)

    report = {
        "name": scenario.get("name", ""),
        "measure": {"s": measure.s, "atoms": len(measure.atoms),
                    "boundary_atoms": len(measure.boundary_atoms)},
        "ahlfors": {
            **_record(ahl, args),
            "A_vis": max(ahl.A_upper, 1.0 / ahl.A_lower) if ahl.A_lower > 0 else math.inf,
        },
        "quasiconformality": _record(qc, args),
    }
    checks = [ahl.passed]
    if "qc_bound" in block:
        qc_ok = qc.Q <= float(block["qc_bound"]) + 1e-9
        report["quasiconformality"]["bound"] = float(block["qc_bound"])
        report["quasiconformality"]["bound_passed"] = qc_ok
        checks.append(qc_ok)
    passed = all(checks)
    report["passed"] = passed
    write_report(outdir, "audits.json", dump_json(report))
    return passed


def read_family(scenario):
    """(make_member, schedule, limit, config) of a scenario's `converge` block:
    member p is the action with its key `vary` set to p (a key `build_action`
    reads), and its ball radius and window scale by p / limit. The limit
    member is built first, before `convergence` loads numpy, so a family
    whose action is refused loads none; make_member returns it for the
    limit."""
    block, action = _block(scenario, "converge"), scenario["action"]
    if not block["schedule"]:
        raise ScenarioError("converge block's `schedule` is empty: it names no member to judge")
    vary = block["vary"]
    *schedule, limit = [Fraction(str(v)) for v in block["schedule"] + [block["limit"]]]
    kw = {k: float(block[k]) for k in ("ball_T", "h_tolerance", "K_bound") if k in block}
    for k, cast in (("window", float), ("eps_ladder", float), ("rank_window", int)):
        if k in block:
            kw[k] = tuple(cast(v) for v in block[k])
    try:
        limit_action = build_action({**action, vary: limit})
    except CertificationError as exc:
        raise exc.of_member(limit) from exc

    from .convergence import ContinuityConfig

    config = ContinuityConfig(param_scale=lambda p: float(p) / float(limit), **kw)
    return ((lambda p: limit_action if p == limit else build_action({**action, vary: p})),
            schedule, limit, config)


def cmd_converge(scenario, args, outdir):
    make_member, schedule, limit, config = read_family(scenario)

    from .convergence import run_continuity_experiment

    block = scenario["converge"]
    audits = {"name": scenario.get("name", ""), "family": block["family"]}
    report = run_continuity_experiment(make_member, schedule, limit, config)
    audits.update(h_limit=report.h_limit, C=report.C, notes=report.notes,
                  continuity_passed=report.passed)
    checks = [report.passed]
    if "cauchy" in block:
        min_ratio = float(block["cauchy"].get("min_shrink_ratio", 1.5))
        hs = [r.h_hat for r in report.rows]
        diffs = [abs(a - b) for a, b in zip(hs, hs[1:])]
        ratios = [a / b for a, b in zip(diffs, diffs[1:]) if b > 0]
        ok = bool(ratios) and min(ratios) >= min_ratio
        audits["cauchy"] = {
            "shrink_ratios": ratios,
            "min_shrink_ratio": min_ratio,
            "passed": ok,
        }
        checks.append(ok)
    passed = all(checks)
    audits["passed"] = passed
    write_report(outdir, "continuity.csv", report.to_csv())
    write_report(outdir, "audits.json", dump_json(audits))
    return passed


def cmd_verify(scenario, args, outdir):
    block = _block(scenario, "verify")
    for check in block["checks"]:
        if check not in CHECKS:
            raise ScenarioError("unknown check %r" % check)
        if check != "lemmas":
            require_keys(block, (check,), "verify block")
    if "shadow_ball" in block["checks"]:
        # the audit would test nothing (`boundary.check_shadow_ball_lemma`)
        sub = block["shadow_ball"]
        if not sub["ts"]:
            raise ScenarioError("shadow_ball block's `ts` is empty: it names no scale T")
        for key, least in (("pair_count", 1), ("max_samples", 2)):
            if int(sub.get(key, least)) < least:
                raise ScenarioError("shadow_ball block's `%s` is %r, below %d"
                                    % (key, sub[key], least))
    if "delta_override" in block and not block.get("unsafe"):
        raise ScenarioError('delta_override requires "unsafe": true')
    seed = _seed(scenario, args)
    action = build_action(scenario["action"])

    from .orbits import check_generating, check_word_metric_comparison, enumerate_orbit_ball

    delta = action.declared_delta
    if "delta_override" in block:
        delta = float(block["delta_override"])

    ball = cache(lambda T: enumerate_orbit_ball(action, T))
    audits = {"name": scenario.get("name", ""), "delta": delta, "seed": seed}
    ok = True

    for check in block["checks"]:
        sub = block.get(check)
        if check == "lemmas":
            from .geometry_checks import SamplingPlan, check_geodesic_lemmas

            plan = SamplingPlan(
                count=int(block.get("configs", 300)),
                seed=seed,
                radius=float(block.get("radius", 6.0)),
            )
            rep = check_geodesic_lemmas(action.space, delta, plan)
        elif check == "shadow_ball":
            from .boundary import check_shadow_ball_lemma, limit_set_sample

            lim = limit_set_sample(action, ball(sub["T"]), float(sub["min_displacement"]))
            samples = list(islice(lim, int(sub.get("max_samples", 200))))
            rep = check_shadow_ball_lemma(action, samples, [float(t) for t in sub["ts"]], seed=seed,
                                          pair_count=int(sub.get("pair_count", 300)))
        elif check == "generating":
            rep = check_generating(action, ball(sub["T"]), sub.get("threshold"))
        elif check == "word_metric":
            rep = check_word_metric_comparison(action, ball(sub["T"]), float(sub["R"]))
        elif check == "packing_growth":
            from .boundary import limit_set_sample, qc_hull_sample
            from .entropy import check_packing_growth

            samples = limit_set_sample(action, ball(sub["T"]), float(sub["min_displacement"]))
            hull = qc_hull_sample(action, samples, int(sub.get("pair_count", 40)), seed=seed)
            rep = check_packing_growth(
                action, hull, [float(t) for t in sub["ts"]], float(sub["r"])
            )
        else:
            from .entropy import check_packing_chain

            pts = ball(sub["T"]).points()[: int(sub.get("max_points", 20))]
            rep = check_packing_chain(action.space, pts, float(sub["r"]))
        audits["geodesic_lemmas" if check == "lemmas" else check] = _record(rep, args)
        ok = ok and rep.passed

    audits["passed"] = ok
    write_report(outdir, "audits.json", dump_json(audits))
    return ok


def __getattr__(name):
    """`orbits` loads with the first action built, not with `cli`; its
    public names still read as `cli` attributes (as
    `cli.enumerate_orbit_ball`)."""
    if not name.startswith("_"):
        from . import orbits

        if hasattr(orbits, name):
            return getattr(orbits, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


COMMANDS = {
    "entropy": cmd_entropy,
    "boundary": cmd_boundary,
    "converge": cmd_converge,
    "verify": cmd_verify,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hypcrit",
        description="Critical-exponent experiments on hyperbolic model spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("entropy", "orbit counts and critical-exponent estimate"),
        ("boundary", "Ahlfors-regularity and quasiconformality audits"),
        ("converge", "continuity experiment along a parametric family"),
        ("verify", "geometry inequality suites"),
    ):
        q = sub.add_parser(name, help=help_text)
        q.add_argument("--scenario", required=True, help="scenario file or bundled name")
        q.add_argument("--out", required=True, help="report directory")
        q.add_argument("--seed", type=int, default=None)
        q.add_argument("--emit-witnesses", action="store_true")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        passed = COMMANDS[args.command](scenario, args, args.out)
    except (CertificationError, ClassificationError, InsufficientDataError, MeasureError,
            NumericalLimitError, ParameterError, ScenarioError) as exc:
        diagnosis = "%s: %s" % (type(exc).__name__, exc)
        print("rejected: " + diagnosis, file=sys.stderr)
        write_report(args.out, "audits.json", dump_json({"error": diagnosis, "passed": False}))
        return 2
    if not passed:
        print("one or more checks failed; see reports in %s" % args.out, file=sys.stderr)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
