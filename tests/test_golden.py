"""Golden sha256 digests of the bundled tree scenarios' report files.

The CLI promises byte-identical reports for the same scenario, seed and
version, so a refactor of the tree code must leave every digest in
``golden/tree_reports.json`` unchanged. A change that alters report bytes
on purpose re-records the file and names the changed fields:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from hypcrit import cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "tree_reports.json"
SEED = 0
#: (subcommand, bundled scenario) pairs whose reports are pinned
RUNS = (
    ("entropy", "f2_tree"),
    ("boundary", "f2_tree"),
    ("verify", "f2_tree"),
    ("converge", "tree_rescale_family"),
)


def report_digests(command, scenario, outdir):
    """Exit code and {report file: sha256} of one CLI run at SEED."""
    code = cli.main([command, "--scenario", scenario, "--out", str(outdir), "--seed", str(SEED)])
    root = Path(outdir)
    digests = {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }
    return code, digests


def _key(command, scenario):
    return "%s-%s" % (command, scenario)


@pytest.mark.parametrize("command,scenario", RUNS, ids=[_key(*r) for r in RUNS])
def test_tree_reports_match_golden_digests(command, scenario, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[_key(command, scenario)]
    code, digests = report_digests(command, scenario, tmp_path)
    assert code == golden["exit_code"]
    assert digests == golden["reports"]


def record():
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for command, scenario in RUNS:
            code, digests = report_digests(command, scenario, Path(tmp) / _key(command, scenario))
            out[_key(command, scenario)] = {"exit_code": code, "reports": digests}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__" and "--record" in sys.argv[1:]:
    record()
