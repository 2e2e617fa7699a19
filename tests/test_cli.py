import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hypcrit import cli


def run(args):
    return cli.main(args)


def read(outdir, name):
    return (outdir / name).read_text(encoding="utf-8")


def refused(args, outdir, named):
    """Run args, a scenario the CLI must refuse: exit 2 and an audits.json
    in outdir whose error is a ScenarioError matching the regex `named`."""
    assert run([*args, "--out", str(outdir)]) == 2
    audit = json.loads(read(outdir, "audits.json"))
    assert audit["passed"] is False
    assert audit["error"].startswith("ScenarioError: ") and re.search(named, audit["error"]), audit


# ---------------------------------------------------------------------------
# negative controls


def test_translation_scenario_is_rejected(tmp_path, capsys):
    code = run(["entropy", "--scenario", "counterexample_translation", "--out", str(tmp_path)])
    assert code != 0
    assert "systole below class threshold" in capsys.readouterr().err
    audit = json.loads(read(tmp_path, "audits.json"))
    assert audit["passed"] is False
    assert "systole below class threshold" in audit["error"]


def test_small_systole_schottky_is_rejected(tmp_path, capsys):
    code = run(["entropy", "--scenario", "counterexample_schottky_small", "--out", str(tmp_path)])
    assert code != 0
    assert "systole below class threshold" in capsys.readouterr().err


def test_elliptic_scenario_is_rejected_by_classification(tmp_path, capsys):
    code = run(["verify", "--scenario", "counterexample_elliptic", "--out", str(tmp_path)])
    assert code != 0
    err = capsys.readouterr().err
    assert "ClassificationError" in err
    assert "elliptic" in err


@pytest.mark.parametrize(
    "action, T",
    [({"kind": "schottky", "L": 4.0, "min_systole": 0.5}, 34.0),
     ({"kind": "schottky", "L": 80.0, "min_systole": 0.5}, 100.0)],
    ids=["ball-beyond-float64", "disks-below-float64"],
)
def test_numerical_limit_exits_2_with_a_named_error(action, T, tmp_path, capsys):
    # a T = 34 ball at L = 4 holds orbit points whose float64 images of i
    # are off by up to about 0.1; the standard disks at L = 80 are narrower
    # than float64 angles resolve
    scenario = {"schema": 1, "name": "deep", "seed": 0, "action": action,
                "entropy": {"T": T, "window": [T / 2, T]}}
    path = tmp_path / "deep.scn"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    code = run(["entropy", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "NumericalLimitError" in capsys.readouterr().err
    audit = json.loads(read(tmp_path / "out", "audits.json"))
    assert audit["passed"] is False and audit["error"].startswith("NumericalLimitError: ")


def test_delta_zero_negative_control_fails_with_witness(tmp_path):
    code = run(["verify", "--scenario", "plane_delta0_negative", "--out", str(tmp_path)])
    assert code == 1
    audit = json.loads(read(tmp_path, "audits.json"))
    assert audit["passed"] is False
    bad = [r for r in audit["geodesic_lemmas"]["rows"] if not r["passed"]]
    assert bad and all(r["witness"] for r in bad)


# ---------------------------------------------------------------------------
# happy paths


def test_entropy_on_the_tree_scenario(tmp_path):
    code = run(["entropy", "--scenario", "f2_tree", "--out", str(tmp_path)])
    assert code == 0
    counts = read(tmp_path, "counts.csv")
    assert counts.splitlines()[0] == "t,count"
    assert counts.splitlines()[1] == "0,1"
    est = json.loads(read(tmp_path, "estimate.json"))
    assert est["passed"] is True
    assert est["estimate"]["h_hat"] == pytest.approx(math.log(3.0), abs=0.01)
    assert est["equidistribution"]["K_measured"] <= 2.0
    assert est["ball"]["count"] == 2 * 3**10 - 1


def test_verify_on_the_tree_scenario_and_determinism(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(["verify", "--scenario", "f2_tree", "--out", str(out1)]) == 0
    assert run(["verify", "--scenario", "f2_tree", "--out", str(out2)]) == 0
    assert read(out1, "audits.json") == read(out2, "audits.json")
    audit = json.loads(read(out1, "audits.json"))
    assert audit["passed"] is True
    assert audit["geodesic_lemmas"]["passed"] is True


def test_converge_runs_a_tiny_family(tmp_path):
    scn = {
        "schema": 1,
        "name": "tiny-constant-family",
        "seed": 0,
        "action": {"kind": "tree", "valence": 4, "edge_length": "1"},
        "converge": {
            "family": "tree-rescale",
            "vary": "edge_length",
            "schedule": ["1", "1"],
            "limit": "1",
            "ball_T": 6.0,
            "window": [2.0, 6.0],
            "eps_ladder": [1.0, 0.5],
        },
    }
    path = tmp_path / "tiny.scn"
    path.write_text(json.dumps(scn), encoding="utf-8")
    out = tmp_path / "out"
    assert run(["converge", "--scenario", str(path), "--out", str(out)]) == 0
    csv = read(out, "continuity.csv")
    assert csv.splitlines()[0] == "param,eps,h_hat,residual,K"
    assert len(csv.splitlines()) == 3
    audit = json.loads(read(out, "audits.json"))
    assert audit["continuity_passed"] is True


def test_tree_continuity_and_entropy_build_no_ball_words(tmp_path, monkeypatch):
    # a tree ball is its level sizes: the entropy and boundary reports and
    # the tree snapshots read them and the radius, never the ball's words,
    # which its words, entries and points all list through _tree_levels
    from hypcrit.orbits import TreeBall, enumerate_orbit_ball, tree_action

    def fail(ball):
        raise AssertionError("a tree ball's words were built")

    monkeypatch.setattr(TreeBall, "_tree_levels", fail)
    assert run(["entropy", "--scenario", "f2_tree", "--out", str(tmp_path / "entropy")]) == 0
    assert run(["boundary", "--scenario", "f2_tree", "--out", str(tmp_path / "boundary")]) == 0
    scn = {
        "schema": 1,
        "name": "short-rescale-family",
        "seed": 0,
        "action": {"kind": "tree", "valence": 4, "edge_length": "1"},
        "converge": {"family": "tree-rescale", "vary": "edge_length", "schedule": ["3/2", "9/8"],
                     "limit": "1"},
    }
    path = tmp_path / "short.scn"
    path.write_text(json.dumps(scn), encoding="utf-8")
    assert run(["converge", "--scenario", str(path), "--out", str(tmp_path / "converge")]) == 0
    # the patch does catch a read of the words, the entries or the points
    for read_words in (TreeBall.words, lambda b: b.entries, TreeBall.points):
        with pytest.raises(AssertionError, match="words were built"):
            read_words(enumerate_orbit_ball(tree_action(), 2))


def test_tree_verify_lists_each_ball_once_per_check(tmp_path, monkeypatch):
    # packing_chain lists the T = 2 ball's points once; generating and
    # word_metric list no entry of their T = 6 ball, as a tree's orbit-graph
    # steps are a closed form and the report reads the ball's runs (each
    # listed the ball's entries once before, and twice before that)
    from hypcrit.orbits import TreeBall

    listed, levels = [], TreeBall._tree_levels

    def counted(ball):
        listed.append(ball.radius)
        return levels(ball)

    monkeypatch.setattr(TreeBall, "_tree_levels", counted)
    assert run(["verify", "--scenario", "f2_tree", "--out", str(tmp_path)]) == 0
    assert listed == [2]


#: runs the command in its argv from a fresh interpreter and prints its exit
#: code and ru_maxrss: Linux counts the memory a child had before exec in
#: its peak, so a child forked from the test process would report that
_PEAK_RSS = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
def test_tree_converge_peak_rss(tmp_path):
    # the benchmark's tree continuity run: the first three members of the
    # family with the full eps ladder; with n^2 prefix tables and whole
    # T = 10 L balls held through the ladder it peaked at 101 MB
    scn = cli.load_scenario("tree_rescale_family")
    scn["converge"]["schedule"] = scn["converge"]["schedule"][:3]
    path = tmp_path / "three.scn"
    path.write_text(json.dumps(scn), encoding="utf-8")
    argv = [sys.executable, "-m", "hypcrit.cli", "converge", "--scenario", str(path),
            "--out", str(tmp_path / "out")]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", _PEAK_RSS, *argv], env=env,
                         capture_output=True, text=True, check=True)
    code, kib = map(int, out.stdout.split())
    assert code == 0
    assert kib / 1024.0 < 75.0


def peak_rss_mib(tmp_path, command, scenario):
    """ru_maxrss in MiB of one CLI run from a fresh interpreter, which must
    exit 0."""
    argv = [sys.executable, "-m", "hypcrit.cli", command, "--scenario", str(scenario),
            "--out", str(tmp_path / command)]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", _PEAK_RSS, *argv], env=env,
                         capture_output=True, text=True, check=True)
    code, kib = map(int, out.stdout.split())
    assert code == 0
    return kib / 1024.0


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
def test_tree_runs_peak_rss_follows_what_they_read(tmp_path):
    # verify f2_tree samples a few boundary words of a T = 10 ball without
    # listing its 118,097 words (41 MB when it did); the three-member
    # continuity run reads its nets by blocks of at most arrays._CELLS
    # float cells (51 MB with blocks of 64 rows of n cells)
    assert peak_rss_mib(tmp_path, "verify", "f2_tree") < 36.0
    scn = cli.load_scenario("tree_rescale_family")
    scn["converge"]["schedule"] = scn["converge"]["schedule"][:3]
    path = tmp_path / "three.scn"
    path.write_text(json.dumps(scn), encoding="utf-8")
    assert peak_rss_mib(tmp_path, "converge", path) < 45.0


def test_tree_ball_past_the_element_cap_exits_2_with_its_size(tmp_path):
    # T = 13 on F_2 is 2 * 3^13 - 1 points, just past the cap: a read that
    # lists its points (the packing chain's) is refused, and as the action
    # is free and discrete the refusal names no non-discreteness; `entropy`
    # reads the ball's counts and sums its levels, so it answers
    scn = cli.load_scenario("f2_tree")
    scn["entropy"]["T"] = 13
    scn["verify"]["checks"] = ["packing_chain"]
    scn["verify"]["packing_chain"]["T"] = 13
    path = tmp_path / "deep.scn"
    path.write_text(json.dumps(scn), encoding="utf-8")
    assert run(["verify", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    audit = json.loads(read(tmp_path / "out", "audits.json"))
    assert audit["error"] == ("CertificationError: a tree ball of depth 13 holds 3188645 points, "
                              "past the element cap 2000000")
    assert run(["entropy", "--scenario", str(path), "--out", str(tmp_path / "entropy")]) == 0
    report = json.loads(read(tmp_path / "entropy", "estimate.json"))
    assert report["ball"]["count"] == 3_188_645 and report["passed"]


def test_emit_witnesses_includes_rows(tmp_path):
    assert run([
        "verify", "--scenario", "f2_tree", "--out", str(tmp_path), "--emit-witnesses"
    ]) == 0
    audit = json.loads(read(tmp_path, "audits.json"))
    assert all("witness" in r for r in audit["geodesic_lemmas"]["rows"])


# ---------------------------------------------------------------------------
# scenario plumbing


def test_unknown_scenario_file(tmp_path):
    # a path with a directory part never falls back to the bundled
    # scenario of its file name
    for path in ("no_such_scenario", "/no/such/dir/f2_tree.scn"):
        with pytest.raises(FileNotFoundError, match=re.escape(path)):
            run(["entropy", "--scenario", path, "--out", str(tmp_path)])


def test_schema_is_checked(tmp_path, monkeypatch):
    # a wrong schema, an action key its kind does not read (a misspelt
    # edge_length would build the default 1), a converge or cauchy key
    # that `converge` does not read (a misspelt rank_window would fall back
    # to the absolute window), a converge block with no `vary`, `schedule`
    # or `limit` or with an empty schedule (which passed with nothing to
    # judge and a continuity.csv of its header alone), and a key of an
    # entropy, boundary or verify block, or of a block nested in one, that
    # its command does not read (f2_tree with a misspelt qc_bound ran
    # `boundary` to exit 0 and skipped the bound check); then a missing
    # required key, which each died on a bare KeyError: no action or no
    # kind, an entropy block with no T or a covering block with no r, a
    # verify block with no checks or with no block for a check it lists, a
    # tree boundary block with no cylinder_depths and a plane one with no
    # min_displacement or scales; and an unknown check, refused before
    # any check runs (the lemma sweep ran first, then no report was written)
    from hypcrit import geometry_checks

    def sweep(*args):
        raise AssertionError("the lemma sweep ran")

    monkeypatch.setattr(geometry_checks, "check_geodesic_lemmas", sweep)
    tree = {"kind": "tree", "valence": 4, "edge_length": "1"}
    family = {"family": "tree-rescale", "vary": "edge_length", "schedule": ["3/2"], "limit": "1"}
    f2 = cli.load_scenario("f2_tree")
    f2["boundary"]["qc_bnd"] = f2["boundary"].pop("qc_bound")
    f2_depths = cli.load_scenario("f2_tree")
    del f2_depths["boundary"]["cylinder_depths"]
    plane = cli.load_scenario("schottky_L4")
    no_min_displacement, no_scales = json.loads(json.dumps(plane)), json.loads(json.dumps(plane))
    del no_min_displacement["boundary"]["min_displacement"]
    del no_scales["boundary"]["scales"]
    bad = [
        ("entropy", {"schema": 99}, "schema"),
        ("entropy", {"schema": 1, "action": {"kind": "tree", "L": 4, "edge_lenght": "2"},
                     "entropy": {"T": 4, "window": [2, 4]}}, "'L', 'edge_lenght'"),
        ("converge", {"schema": 1, "action": tree, "converge": {**family, "rank_windw": [1, 4]}},
         "'rank_windw'"),
        ("converge", {"schema": 1, "action": tree,
                      "converge": {**family, "cauchy": {"min_shrink": 2.0}}}, "'min_shrink'"),
        ("converge", {"schema": 1, "action": tree,
                      "converge": {k: v for k, v in family.items() if k != "vary"}}, "`vary`"),
        ("converge", {"schema": 1, "action": tree,
                      "converge": {k: v for k, v in family.items() if k != "schedule"}},
         "`schedule` key"),
        ("converge", {"schema": 1, "action": tree,
                      "converge": {k: v for k, v in family.items() if k != "limit"}}, "`limit`"),
        ("converge", {"schema": 1, "action": tree, "converge": {**family, "schedule": []}},
         "`schedule` is empty"),
        ("entropy", {"schema": 1, "action": tree, "entropy": {"T": 4, "window": [2, 4],
                                                              "K_bnd": 2}}, "'K_bnd'"),
        ("entropy", {"schema": 1, "action": tree,
                     "entropy": {"T": 4, "window": [2, 4], "covering": {"r": 1, "windw": [1]}}},
         "covering block has unknown keys 'windw'"),
        ("verify", {"schema": 1, "seed": 0, "action": tree,
                    "verify": {"checks": ["lemmas"], "config": 10}}, "'config'"),
        ("verify", {"schema": 1, "seed": 0, "action": tree,
                    "verify": {"checks": ["generating"], "generating": {"T": 2, "treshold": 1}}},
         "generating block has unknown keys 'treshold'"),
        ("boundary", f2, "boundary block has unknown keys 'qc_bnd'"),
        ("entropy", {"schema": 1, "entropy": {"T": 4, "window": [2, 4]}},
         "scenario needs an `action` key"),
        ("entropy", {"schema": 1, "action": {"valence": 4}, "entropy": {"T": 4, "window": [2, 4]}},
         "action block needs a `kind` key"),
        ("entropy", {"schema": 1, "action": tree, "entropy": {"window": [2, 4]}},
         "entropy block needs a `T` key"),
        ("entropy", {"schema": 1, "action": tree,
                     "entropy": {"T": 4, "window": [2, 4], "covering": {"window": [1, 3]}}},
         "covering block needs a `r` key"),
        ("verify", {"schema": 1, "seed": 0, "action": tree, "verify": {"configs": 10}},
         "verify block needs a `checks` key"),
        ("verify", {"schema": 1, "seed": 0, "action": tree,
                    "verify": {"checks": ["lemmas", "shadow_ball"]}},
         "verify block needs a `shadow_ball` key"),
        ("verify", {"schema": 1, "seed": 0, "action": tree, "verify": {"checks": ["lemmas", "typo"]}},
         "unknown check 'typo'"),
        ("boundary", f2_depths, "tree boundary block needs a `cylinder_depths` key"),
        ("boundary", no_min_displacement, "plane boundary block needs a `min_displacement` key"),
        ("boundary", no_scales, "plane boundary block needs a `scales` key"),
    ]
    for i, (command, doc, named) in enumerate(bad):
        path = tmp_path / "bad.scn"
        path.write_text(json.dumps(doc), encoding="utf-8")
        refused([command, "--scenario", str(path)], tmp_path / str(i), named)


def test_missing_block_is_an_error(tmp_path):
    refused(["converge", "--scenario", "f2_tree"], tmp_path, "has no 'converge' block")


def test_refused_values_exit_2_before_any_check_runs(tmp_path, monkeypatch):
    # a qc_word that is not a reduced word over the alphabet and shadow_ball
    # values with which the audit tests nothing, each refused before the
    # orbit ball or the lemma sweep; they used to end in a traceback with
    # exit 1 and no audits.json
    from hypcrit import geometry_checks, orbits

    def ran(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(orbits, "enumerate_orbit_ball", ran)
    monkeypatch.setattr(geometry_checks, "check_geodesic_lemmas", ran)
    bad = []
    for word in ("aA", "c", ""):
        f2 = cli.load_scenario("f2_tree")
        f2["boundary"]["qc_word"] = word
        bad.append(("boundary", f2, "`qc_word` %r is not a nonempty reduced word over aAbB" % word))
    for key, value, named in (("ts", [], "`ts` is empty"), ("pair_count", 0, "`pair_count` is 0"),
                              ("max_samples", 1, "`max_samples` is 1, below 2")):
        f2 = cli.load_scenario("f2_tree")
        f2["verify"]["shadow_ball"][key] = value
        bad.append(("verify", f2, named))
    no_window = cli.load_scenario("f2_tree")
    del no_window["entropy"]["window"]
    bad.append(("entropy", no_window, "entropy block needs a `window` key"))
    for i, (command, doc, named) in enumerate(bad):
        path = tmp_path / "bad.scn"
        path.write_text(json.dumps(doc), encoding="utf-8")
        refused([command, "--scenario", str(path)], tmp_path / str(i), re.escape(named))


@pytest.mark.parametrize("command, keys, value, error", [
    ("entropy", ("entropy", "T"), -1, "ParameterError: ball radius must be nonnegative"),
    ("entropy", ("entropy", "window"), [9, 10],
     "InsufficientDataError: need at least 4 grid points in the window"),
    ("boundary", ("boundary", "T"), 1,
     "InsufficientDataError: no usable cells for the quasiconformality audit"),
    ("boundary", ("boundary", "s"), 0.5,
     "MeasureError: s = 0.5 is not above the rough growth rate 1.099"),
    ("verify", ("verify", "generating", "T"), 0,
     "InsufficientDataError: ball radius 0 < 2x threshold 1.0"),
    ("verify", ("verify", "generating", "threshold"), 5.0,
     "ParameterError: threshold above the theoretical generating bound"),
    ("verify", ("verify", "word_metric", "R"), 0.5,
     "ParameterError: R must exceed 2D + 72*delta = 1"),
    ("entropy", ("action", "valence"), 5,
     "ParameterError: group structure needs even valence, got 5"),
    ("entropy", ("action", "edge_length"), "0",
     "ParameterError: tree edge length must be positive, got 0"),
    ("boundary", ("boundary", "cylinder_depths"), [0],
     "ParameterError: cylinder depth must be >= 1, got 0"),
    ("boundary", ("boundary", "qc_depth"), 0, "ParameterError: cylinder depth must be >= 1, got 0"),
    ("verify", ("verify", "shadow_ball", "ts"), [2.0, 800.0],
     "ParameterError: radius must be in (0, 1], got 0.0"),
    ("verify", ("verify", "packing_growth", "ts"), [2, 4, 6, 800],
     "NumericalLimitError: packing bound P (1 + P)^(T/r - 1) at P = 10, T = 800, r = 1 "
     "is past float64"),
    ("entropy", ("entropy", "K_h"), 100,
     "NumericalLimitError: e^(hT) at h = 100, T = 8 is past float64"),
    ("boundary", ("boundary", "h"), 200,
     "NumericalLimitError: rho^h at rho = 0.0183156, h = 200 leaves float64's range"),
], ids=["negative-T", "narrow-window", "shallow-boundary", "s-below-growth", "shallow-generating",
        "large-threshold", "small-R", "odd-valence", "zero-edge", "depth-0-cylinders",
        "depth-0-qc", "underflowing-shadow-ball-T", "overflowing-packing-bound",
        "overflowing-equidistribution-h", "underflowing-ahlfors-scale"])
def test_library_refusals_of_a_value_exit_2(tmp_path, command, keys, value, error):
    # f2_tree with one value changed, refused by the library, not by the
    # scenario screen; all but the zero edge and the shadow-ball T ended in
    # a traceback with exit 1 and no audits.json (a depth-0 cylinder has no
    # approximant); a T past 745, whose ball radius e^{-T} is 0.0, is
    # refused where the audit computes its ball thresholds, and a float64
    # overflow or underflow of a bound, of e^{hT} or of rho^h where it is
    # computed
    scn = cli.load_scenario("f2_tree")
    *blocks, key = keys
    block = scn
    for name in blocks:
        block = block[name]
    block[key] = value
    if command == "verify":
        scn["verify"]["checks"] = [blocks[1]]
    path = tmp_path / "bad.scn"
    path.write_text(json.dumps(scn), encoding="utf-8")
    assert run([command, "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    audit = json.loads(read(tmp_path / "out", "audits.json"))
    assert audit["passed"] is False and audit["error"].startswith(error), audit


def test_internal_value_errors_propagate(tmp_path, monkeypatch):
    # only the named refusals exit 2; any other ValueError is a fault of
    # the program and keeps its traceback
    from hypcrit.errors import KindMismatchError

    def mixed(*args):
        raise KindMismatchError("mixed models")

    monkeypatch.setitem(cli.COMMANDS, "entropy", mixed)
    with pytest.raises(KindMismatchError):
        run(["entropy", "--scenario", "f2_tree", "--out", str(tmp_path)])
    assert not (tmp_path / "audits.json").exists()


def test_converge_refuses_a_vary_key_its_kind_does_not_read(tmp_path):
    # a tree reads no "L": varying it would run a constant family, which
    # "converges"; building the limit, before any orbit ball, refuses it
    scn = {
        "schema": 1,
        "name": "constant-family",
        "seed": 0,
        "action": {"kind": "tree", "valence": 4, "edge_length": "1"},
        "converge": {"family": "tree-rescale", "vary": "L", "schedule": ["3/2"], "limit": "1"},
    }
    path = tmp_path / "constant.scn"
    path.write_text(json.dumps(scn), encoding="utf-8")
    refused(["converge", "--scenario", str(path)], tmp_path, "tree action has unknown keys 'L'")


def test_delta_override_requires_unsafe_flag(tmp_path):
    scn = {
        "schema": 1,
        "name": "no-unsafe",
        "seed": 0,
        "action": {"kind": "tree"},
        "verify": {"checks": ["lemmas"], "configs": 10, "delta_override": 0.5},
    }
    path = tmp_path / "no_unsafe.scn"
    path.write_text(json.dumps(scn), encoding="utf-8")
    refused(["verify", "--scenario", str(path)], tmp_path, 'delta_override requires "unsafe": true')
