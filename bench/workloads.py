"""Workloads of the hypcrit benchmark.

A workload copies some bundled scenarios, writes the workload seed into
each copy, and runs a fixed list of CLI subcommands on them. Every run has
an expected exit code and a check of its report files; a run fails when
either does not hold. Why each workload exists is in README.md.
"""

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

#: orbit-ball size of f2_tree's entropy block: N(10) = 2*3^10 - 1
TREE_BALL_COUNT = 2 * 3**10 - 1
#: members of the tree-rescale family kept by the tree workload
CONTINUITY_MEMBERS = 3


@dataclass(frozen=True)
class CliRun:
    label: str  # unique in its workload; also the name of its report directory
    command: str
    scenario: str  # stem of a generated scenario file
    expect_exit: int
    check: object  # check(outdir, scenario) -> list of problems


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenarios: tuple  # bundled scenario stems
    runs: tuple

    def write_scenarios(self, src, seed, dest):
        """Copy the bundled scenarios into dest with the workload seed.

        Returns {stem: (path, scenario dict)}.
        """
        out = {}
        for stem in self.scenarios:
            bundled = Path(src) / "hypcrit" / "scenarios" / (stem + ".scn")
            sc = json.loads(bundled.read_text(encoding="utf-8"))
            sc["seed"] = int(seed)
            if stem == "tree_rescale_family":
                conv = sc["converge"]
                conv["schedule"] = conv["schedule"][:CONTINUITY_MEMBERS]
            path = Path(dest) / (stem + ".scn")
            path.write_text(json.dumps(sc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
            out[stem] = (path, sc)
        return out


# ---------------------------------------------------------------------------
# report checks


def _load(outdir, name):
    return json.loads((Path(outdir) / name).read_text(encoding="utf-8"))


def _passed(report, name):
    if report.get("passed") is not True:
        return ["%s: passed is %r" % (name, report.get("passed"))]
    return []


def report_passed(name):
    def check(outdir, scenario):
        return _passed(_load(outdir, name), name)

    return check


def tree_entropy(outdir, scenario):
    """The tree entropy ball holds exactly 2*3^10 - 1 orbit points."""
    report = _load(outdir, "estimate.json")
    problems = _passed(report, "estimate.json")
    count = report["ball"]["count"]
    if count != TREE_BALL_COUNT:
        problems.append("tree ball count %r != 2*3^10-1 = %d" % (count, TREE_BALL_COUNT))
    return problems


def lemma_failure(outdir, scenario):
    """plane_delta0_negative must fail on lemma rows, each with a witness."""
    report = _load(outdir, "audits.json")
    rows = report["geodesic_lemmas"]["rows"]
    failing = [r for r in rows if r["passed"] is not True]
    problems = []
    if report.get("passed") is not False:
        problems.append("negative control passed")
    if not failing:
        problems.append("no failing lemma row")
    if any("witness" not in r for r in failing):
        problems.append("failing lemma row without witness")
    return problems


def rejected(error_type, phrase=""):
    """A counterexample is refused with the named error in audits.json."""

    def check(outdir, scenario):
        error = _load(outdir, "audits.json").get("error", "")
        if not error.startswith(error_type + ":") or phrase not in error:
            return ["expected %s (%s), got %r" % (error_type, phrase or "any", error)]
        return []

    return check


def tree_continuity(outdir, scenario):
    """Every row has a finite eps and h_hat within h_tolerance of log(k-1)/l."""
    block = scenario["converge"]
    tol = float(block["h_tolerance"])
    valence = int(scenario["action"]["valence"])
    problems = _passed(_load(outdir, "audits.json"), "audits.json")
    with open(Path(outdir) / "continuity.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(block["schedule"]):
        problems.append("%d continuity rows for %d members" % (len(rows), len(block["schedule"])))
    for r in rows:
        param, eps, h = float(r["param"]), float(r["eps"]), float(r["h_hat"])
        if not math.isfinite(eps):
            problems.append("member %g: no witness at any eps" % param)
        closed = math.log(valence - 1) / param
        if abs(h - closed) > tol:
            problems.append("member %g: h_hat %.6g vs log(%d)/l %.6g" % (param, h, valence - 1, closed))
    return problems


def check_run(run, exit_code, outdir, scenario):
    """Problems of one finished CLI run; empty when it is correct."""
    if exit_code != run.expect_exit:
        return ["exit code %r, expected %d" % (exit_code, run.expect_exit)]
    try:
        return run.check(outdir, scenario)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return ["unreadable report: %s: %s" % (type(exc).__name__, exc)]


# ---------------------------------------------------------------------------
# report digests


def report_digests(outdir):
    """sha256 of every report file under outdir, by relative path."""
    root = Path(outdir)
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def digest_changes(recorded, seed, digests):
    """(changed, unrecorded) report files of one run against its record.

    recorded maps a file to {"any": digest} when its bytes do not depend on
    the seed, else to {"seeds": {seed: digest}}. A recorded file that the
    run no longer writes counts as changed.
    """
    changed = unrecorded = 0
    for name, digest in digests.items():
        rec = recorded.get(name, {})
        want = rec.get("any") or rec.get("seeds", {}).get(str(seed))
        if want is None:
            unrecorded += 1
        elif want != digest:
            changed += 1
    changed += sum(1 for name in recorded if name not in digests)
    return changed, unrecorded


# ---------------------------------------------------------------------------
# the workloads


def _run(command, scenario, expect_exit, check):
    return CliRun("%s-%s" % (command, scenario), command, scenario, expect_exit, check)


SYSTOLE = "systole below class threshold"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tree",
            "tree side: f2_tree entropy, boundary and verify audits, then tree-rescale "
            "continuity of delta with the full eps ladder and its 3841-point pairwise table",
            ("f2_tree", "tree_rescale_family"),
            (
                _run("entropy", "f2_tree", 0, tree_entropy),
                _run("boundary", "f2_tree", 0, report_passed("audits.json")),
                _run("verify", "f2_tree", 0, report_passed("audits.json")),
                _run("converge", "tree_rescale_family", 0, tree_continuity),
            ),
        ),
        Workload(
            "plane-audit",
            "same audits on the float Moebius branch, plus the Schottky family, "
            "ping-pong certification and the four negative controls",
            (
                "schottky_L4", "schottky_family", "plane_delta0_negative",
                "counterexample_elliptic", "counterexample_schottky_small",
                "counterexample_translation",
            ),
            (
                _run("entropy", "schottky_L4", 0, report_passed("estimate.json")),
                _run("boundary", "schottky_L4", 0, report_passed("audits.json")),
                _run("verify", "schottky_L4", 0, report_passed("audits.json")),
                _run("converge", "schottky_family", 0, report_passed("audits.json")),
                _run("verify", "plane_delta0_negative", 1, lemma_failure),
                _run("entropy", "counterexample_elliptic", 2, rejected("ClassificationError")),
                _run("entropy", "counterexample_schottky_small", 2,
                      rejected("CertificationError", SYSTOLE)),
                _run("entropy", "counterexample_translation", 2,
                      rejected("CertificationError", SYSTOLE)),
            ),
        ),
    )
}
