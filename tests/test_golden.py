"""Golden sha256 digests of the bundled scenarios' report files.

The CLI promises byte-identical reports for the same scenario, seed and
version, so a refactor must leave every digest in ``golden/reports.json``
unchanged, on the tree and on the plane, at seed 0 (and `verify
schottky_L4` and `verify f2_tree` also at seeds 1 and 2, and with
`--emit-witnesses`). A change that alters report bytes on purpose
re-records the file and names the changed fields:

    PYTHONPATH=src python tests/test_golden.py --record

Recording prints every run and report file whose digest it adds, changes
or removes.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from hypcrit import cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "reports.json"
SEED = 0
#: (subcommand, bundled scenario) pairs whose reports are pinned
TREE_RUNS = (
    ("entropy", "f2_tree"),
    ("boundary", "f2_tree"),
    ("verify", "f2_tree"),
    ("converge", "tree_rescale_family"),
)
PLANE_RUNS = (
    ("entropy", "schottky_L4"),
    ("boundary", "schottky_L4"),
    ("verify", "schottky_L4"),
    ("converge", "schottky_family"),
    ("verify", "plane_delta0_negative"),
    ("entropy", "counterexample_elliptic"),
    ("entropy", "counterexample_schottky_small"),
    ("entropy", "counterexample_translation"),
)
#: (subcommand, bundled scenario, seed) runs pinned at seeds besides SEED:
#: the shadow-ball audit of `verify` draws its boundary pairs from the seed
SEEDED_RUNS = (
    ("verify", "schottky_L4", 1),
    ("verify", "schottky_L4", 2),
    ("verify", "f2_tree", 1),
    ("verify", "f2_tree", 2),
)
#: (subcommand, bundled scenario) runs pinned at SEED with --emit-witnesses:
#: a passing check's witness reaches its report only under the flag
WITNESS_RUNS = (
    ("verify", "f2_tree"),
    ("verify", "schottky_L4"),
)
RUNS = (
    tuple((c, s, SEED, False) for c, s in TREE_RUNS + PLANE_RUNS)
    + tuple(r + (False,) for r in SEEDED_RUNS)
    + tuple((c, s, SEED, True) for c, s in WITNESS_RUNS)
)


def report_digests(command, scenario, outdir, seed=SEED, witnesses=False):
    """Exit code and {report file: sha256} of one CLI run at `seed`, with
    `--emit-witnesses` where `witnesses`."""
    argv = [command, "--scenario", scenario, "--out", str(outdir), "--seed", str(seed)]
    code = cli.main(argv + ["--emit-witnesses"] * witnesses)
    root = Path(outdir)
    digests = {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }
    return code, digests


def _key(command, scenario, seed=SEED, witnesses=False):
    key = "%s-%s" % (command, scenario)
    if seed != SEED:
        key = "%s-seed%d" % (key, seed)
    return key + "-witnesses" * witnesses


def _check_golden(command, scenario, outdir, seed=SEED, witnesses=False):
    key = _key(command, scenario, seed, witnesses)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[key]
    code, digests = report_digests(command, scenario, outdir, seed, witnesses)
    assert code == golden["exit_code"]
    assert digests == golden["reports"]


@pytest.mark.parametrize("command,scenario", TREE_RUNS, ids=[_key(*r) for r in TREE_RUNS])
def test_tree_reports_match_golden_digests(command, scenario, tmp_path):
    _check_golden(command, scenario, tmp_path)


@pytest.mark.parametrize("command,scenario", PLANE_RUNS, ids=[_key(*r) for r in PLANE_RUNS])
def test_plane_reports_match_golden_digests(command, scenario, tmp_path):
    _check_golden(command, scenario, tmp_path)


@pytest.mark.parametrize(
    "command,scenario,seed", SEEDED_RUNS, ids=[_key(*r) for r in SEEDED_RUNS]
)
def test_reports_match_golden_digests_at_other_seeds(command, scenario, seed, tmp_path):
    _check_golden(command, scenario, tmp_path, seed)


@pytest.mark.parametrize(
    "command,scenario", WITNESS_RUNS, ids=[_key(c, s, witnesses=True) for c, s in WITNESS_RUNS]
)
def test_reports_with_witnesses_match_golden_digests(command, scenario, tmp_path):
    _check_golden(command, scenario, tmp_path, witnesses=True)


def _flatten(golden):
    """{"run exit_code" or "run/report file": value} of a golden document."""
    flat = {}
    for run, rec in golden.items():
        flat[run + " exit_code"] = rec["exit_code"]
        for name, digest in rec["reports"].items():
            flat[run + "/" + name] = digest
    return flat


def describe_changes(old, new):
    """Lines naming each entry that `new` adds, changes or removes from `old`."""
    old, new = _flatten(old), _flatten(new)
    lines = []
    for key in sorted(set(old) | set(new)):
        if key not in old:
            lines.append("added   %s = %s" % (key, new[key]))
        elif key not in new:
            lines.append("removed %s (was %s)" % (key, old[key]))
        elif old[key] != new[key]:
            lines.append("changed %s: %s -> %s" % (key, old[key], new[key]))
    return lines


def test_describe_changes_names_every_moved_entry():
    old = {"a": {"exit_code": 0, "reports": {"x.json": "1", "y.csv": "2"}},
           "b": {"exit_code": 0, "reports": {}}}
    new = {"a": {"exit_code": 1, "reports": {"x.json": "1", "z.csv": "3"}},
           "c": {"exit_code": 2, "reports": {}}}
    assert describe_changes(old, new) == [
        "changed a exit_code: 0 -> 1",
        "removed a/y.csv (was 2)",
        "added   a/z.csv = 3",
        "removed b exit_code (was 0)",
        "added   c exit_code = 2",
    ]
    assert describe_changes(new, new) == []


def record():
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for command, scenario, seed, witnesses in RUNS:
            key = _key(command, scenario, seed, witnesses)
            code, digests = report_digests(command, scenario, Path(tmp) / key, seed, witnesses)
            out[key] = {"exit_code": code, "reports": digests}
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    for line in describe_changes(old, out) or ["no digest changed"]:
        print(line)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__" and "--record" in sys.argv[1:]:
    record()
