"""Every import in a hypcrit module is read somewhere in its scope, every
definition is named somewhere else, the definitions only tests read are
listed, the model-kind tests are counted, each model's objects define
the same methods or names and no module asks an orbit ball which model it holds
by comparing its `sizes` or `_entries` with None, a subcommand loads only the modules it runs, no module
imports `dataclasses` (defining a dataclass compiles its methods at
import, about 0.4 ms a class), and no module calls BLAS, so the CLI's
single OpenBLAS thread costs nothing."""

import ast
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hypcrit"
MODULES = sorted(SRC.glob("*.py"))
# __init__.py re-exports through a module __getattr__ and imports nothing
# at the top level
TOP_LEVEL = [p for p in MODULES if p.name != "__init__.py"]


def _imported(statements):
    """{bound name: line} of the import statements among statements."""
    imported = {}
    for node in statements:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    return imported


def _unread(imported, scope):
    read = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def unused_imports(source):
    tree = ast.parse(source)
    return _unread(_imported(tree.body), tree)


def unused_function_imports(source):
    """(line, name) of names imported inside a function body, at any depth
    of its statements, that the function never reads."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out += _unread(_imported(ast.walk(fn)), fn)
    return sorted(out)


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(tau)\n") == [
        (1, "os"), (2, "pi")
    ]


def test_scan_finds_an_unused_function_import():
    source = (
        "def f(x):\n"
        "    from math import pi, tau\n"
        "    if x:\n"
        "        import os\n"
        "    return tau\n"
    )
    assert unused_function_imports(source) == [(2, "pi"), (4, "os")]


@pytest.mark.parametrize("path", TOP_LEVEL, ids=[p.name for p in TOP_LEVEL])
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_function_imports(path):
    assert unused_function_imports(path.read_text(encoding="utf-8")) == []


def dataclasses_imports(source):
    """Lines of the statements, at any depth, that import `dataclasses`."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
    )


def test_scan_finds_a_dataclasses_import():
    source = (
        "import os, dataclasses\n"
        "from dataclasses import dataclass\n"
        "def f():\n"
        "    from dataclasses import replace\n"
        "from collections import namedtuple\n"
    )
    assert dataclasses_imports(source) == [1, 2, 4]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_dataclasses_import(path):
    assert dataclasses_imports(path.read_text(encoding="utf-8")) == []


def unreferenced(definitions, sources):
    """Sorted (line, name) of the functions, methods and classes defined
    in the source `definitions` (dunder names exempt) whose name no other
    place in `sources`, which include `definitions`, mentions: it occurs
    there, as a word, no more often than it is defined."""
    mentions = Counter(m for text in sources for m in re.findall(r"[A-Za-z_]\w*", text))
    defs = [
        (node.lineno, node.name) for node in ast.walk(ast.parse(definitions))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    defined = Counter(name for _, name in defs)
    return sorted((line, name) for line, name in defs if mentions[name] <= defined[name])


def test_scan_finds_an_unreferenced_definition():
    source = (
        "class Box:\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "    def size(self):\n"
        "        return helper()\n"
        "def helper():\n"
        "    return 1\n"
        "def twice():\n"
        "    pass\n"
        "def twice():\n"
        "    pass\n"
    )
    assert unreferenced(source, [source, "# the Box"]) == [(4, "size"), (8, "twice"), (10, "twice")]


def test_every_definition_is_referenced():
    """Each function, method or class of src/hypcrit is named somewhere in
    the Python files of src/, tests/ or bench/ other than its definition
    (a call, an attribute read, a traced name or a docstring)."""
    paths = [p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py")]
    sources = [p.read_text(encoding="utf-8") for p in paths]
    found = {p.name: unreferenced(p.read_text(encoding="utf-8"), sources) for p in MODULES}
    assert {name: defs for name, defs in found.items() if defs} == {}


def program_only_unreferenced(root):
    """Sorted (module file, name) of the definitions of root/src/hypcrit
    that no Python file under root/src names but their own definition:
    the program never reads them, whatever tests or bench/ do."""
    paths = sorted((root / "src" / "hypcrit").glob("*.py"))
    sources = [p.read_text(encoding="utf-8") for p in (root / "src").rglob("*.py")]
    return sorted(
        (p.name, name) for p in paths
        for _, name in unreferenced(p.read_text(encoding="utf-8"), sources)
    )


def test_scan_finds_a_definition_only_tests_name(tmp_path):
    # helper stays named in tests/t.py once n.py stops calling it
    (tmp_path / "src" / "hypcrit").mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "hypcrit" / "m.py").write_text(
        "def used():\n    return 1\ndef helper():\n    return used()\n", encoding="utf-8"
    )
    (tmp_path / "src" / "hypcrit" / "n.py").write_text(
        "from .m import helper\nhelper()\n", encoding="utf-8"
    )
    (tmp_path / "tests" / "t.py").write_text("from hypcrit.m import helper\n", encoding="utf-8")
    assert program_only_unreferenced(tmp_path) == []
    (tmp_path / "src" / "hypcrit" / "n.py").write_text("", encoding="utf-8")
    assert program_only_unreferenced(tmp_path) == [("m.py", "helper")]


#: the definitions in src/ that only tests read, each with the reason it
#: stays there; ROADMAP's "Dead code" note lists them too
TEST_ONLY = {
    ("geometry_checks.py", "_rand_tree_point"):
        "the tree counterpart of _rand_plane_point, kept beside the grid sampler it wraps; "
        "tests draw random tree points with it",
    ("orbits.py", "measure_codiameter"):
        "the codiameter lower estimate that ROADMAP item 7 reports for each member",
    ("orbits.py", "word_metric_distances"):
        "the public word-metric read of a ball, which tests and the benchmark tracer call; "
        "check_word_metric_comparison reads the ball's orbit-graph steps itself",
    ("space.py", "estimate_delta"):
        "the four-point delta lower estimate that ROADMAP item 7 reports for each member",
}


def test_definitions_only_tests_read_are_listed():
    # `test_every_definition_is_referenced` counts a name in tests/ or
    # bench/ as a reader; over src/ alone the scan finds what the program
    # itself never reads
    assert program_only_unreferenced(ROOT) == sorted(TEST_ONLY)


def kind_tests(source):
    """The number of comparisons with an operand `<expr>.kind`, each a
    decision on the model kind."""
    return sum(
        any(isinstance(x, ast.Attribute) and x.attr == "kind" for x in (node.left, *node.comparators))
        for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Compare)
    )


def test_scan_finds_kind_tests():
    source = (
        "if space.kind == TREE:\n"
        "    same = a.space.kind != b.space.kind\n"
        "assert p.kind in KINDS\n"
        "name = TREE if kind == 'tree' else PLANE\n"
        "rules = RULES[space.kind]\n"
    )
    assert kind_tests(source) == 3


#: the model-kind tests left in each module. `boundary` picks its model's
#: rules object once, `convergence` its snapshot class once and the tree
#: resolution of the continuity experiment once, and `orbits` none, each
#: action building its own ball; ROADMAP item 13 says why the rest stay
KIND_TESTS = {
    "arrays.py": 1, "boundary.py": 1, "cli.py": 1, "convergence.py": 2, "entropy.py": 2,
    "geometry_checks.py": 2, "isometries.py": 6, "space.py": 8,
}


def test_kind_tests_are_pinned():
    found = {p.name: kind_tests(p.read_text(encoding="utf-8")) for p in MODULES}
    assert {name: n for name, n in found.items() if n} == KIND_TESTS


#: the methods of each model's boundary rules
RULES = (
    "product exceeds visual ball_contains shadow_contains ray_shadow ray_points_to pack_cov "
    "limit_set_sample hull_points measure ball_sums shadow_sums pulled_mass cell_ray"
).split()


def test_each_model_object_defines_the_same_methods():
    from hypcrit.boundary import _PlaneRules, _TreeRules
    from hypcrit.convergence import _PlaneSnapshot, _TreeSnapshot

    for cls in (_TreeRules, _PlaneRules):
        assert sorted(n for n in vars(cls) if not n.startswith("_")) == sorted(RULES), cls
    for cls in (_TreeSnapshot, _PlaneSnapshot):
        assert {"metric", "row", "wordwise_points"} <= set(vars(cls)), cls


#: the reads each model's orbit ball defines; every ball also sets its
#: `radius` and `count`
BALL = (
    "entries points words count_within displacement_at count_by_shell count_samples runs "
    "shortest"
).split()


def test_each_orbit_ball_defines_the_same_reads():
    from hypcrit.orbits import PlaneBall, TreeBall, enumerate_orbit_ball, tree_action

    for cls in (TreeBall, PlaneBall):
        assert sorted(n for n in vars(cls) if not n.startswith("_")) == sorted(BALL), cls
    plane = PlaneBall(0.0, (), ())
    assert {"radius", "count"} <= set(vars(enumerate_orbit_ball(tree_action(), 1))) & set(vars(plane))


#: the public names each model's action defines, beside a plane action's
#: `gen_map` and `certificate`
ACTION = (
    "space declared_delta declared_codiameter basepoint rank alphabet closed_form_exponent "
    "isometry orbit_point orbit_ball"
).split()


def test_each_action_defines_the_same_names():
    from hypcrit.orbits import PlaneAction, TreeAction

    def public(cls):
        return sorted(n for n in vars(cls) if not n.startswith("_"))

    assert public(TreeAction) == sorted(ACTION)
    assert public(PlaneAction) == sorted(ACTION + ["certificate", "gen_map"])


def none_tests(source, attrs=("sizes", "_entries")):
    """(line, attribute) of each comparison of `<expr>.<attr>` with None,
    for attr in attrs: a ball read that asks which model it holds."""
    return sorted(
        (node.lineno, x.attr) for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Compare)
        and any(isinstance(y, ast.Constant) and y.value is None for y in (node.left, *node.comparators))
        for x in (node.left, *node.comparators) if isinstance(x, ast.Attribute) and x.attr in attrs
    )


def test_scan_finds_none_tests():
    source = (
        "if ball.sizes is not None:\n"
        "    x = self._entries is None or b.sizes == None\n"
        "y = ball.sizes is other\n"
        "z = ball.count is None\n"
    )
    assert none_tests(source) == [(1, "sizes"), (2, "_entries"), (2, "sizes")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_ball_asks_its_model(path):
    assert none_tests(path.read_text(encoding="utf-8")) == []


#: every name the package re-exports: those it re-exported when its
#: __init__ imported all modules, with `TreeBall` and `PlaneBall` for the
#: orbit ball and `TreeAction` and `PlaneAction` for the action they
#: replace
REEXPORTED = (
    "ModelSpace TreePoint PlanePoint Ray distance geodesic_point gromov_product "
    "PlaneIsometry SchottkyDescription TreeIsometry apply_isometry certify_ping_pong "
    "compose schottky_pair translation_length "
    "PlaneAction PlaneBall TreeAction TreeBall enumerate_orbit_ball measure_systole "
    "schottky_action tree_action "
    "EntropyEstimate covering_entropy_estimate equidistribution_constant "
    "estimate_critical_exponent poincare_partial "
    "check_ahlfors_regularity check_quasiconformality check_shadow_ball_lemma "
    "limit_set_sample patterson_sullivan_atoms visual_distance "
    "SamplingPlan check_geodesic_lemmas "
    "ContinuityConfig run_continuity_experiment search_witness snapshot verify_witness"
).split()

_REJECTED_RUN = """
import json, sys
from hypcrit import cli
code = cli.main(["entropy", "--scenario", sys.argv[1], "--out", sys.argv[2]])
loaded = sorted(m for m in sys.modules if m.startswith(("hypcrit", "numpy")))
import hypcrit
resolved = {name: getattr(hypcrit, name).__module__ for name in sys.argv[3:]}
print(json.dumps({"code": code, "loaded": loaded, "resolved": resolved}))
"""

#: bundled inputs outside the theorem's class, each refused by the scalar
#: screen of `cli.build_action`
COUNTEREXAMPLES = (
    "counterexample_translation", "counterexample_elliptic", "counterexample_schottky_small"
)


def _run(code, *args, flags=(), **env):
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    out = subprocess.run(
        [sys.executable, *flags, "-c", code, *args],
        env=dict(base, PYTHONPATH=str(SRC.parent), **env), capture_output=True, text=True,
        check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_rejected_entropy_run_loads_no_audit_module(tmp_path):
    for name in COUNTEREXAMPLES:
        got = _run(_REJECTED_RUN, name, str(tmp_path / name), *REEXPORTED)
        assert got["code"] == 2
        assert not [m for m in got["loaded"] if m == "numpy" or m.startswith("numpy.")]
        for module in ("boundary", "convergence", "entropy", "geometry_checks", "orbits"):
            assert "hypcrit." + module not in got["loaded"]
        # the package still re-exports every name, each from its defining module
        assert sorted(got["resolved"]) == sorted(REEXPORTED)
        assert all(m.startswith("hypcrit.") for m in got["resolved"].values())


_REJECTED_CONVERGE = """
import json, sys
from hypcrit import cli
code = cli.main(["converge", "--scenario", sys.argv[1], "--out", sys.argv[2]])
loaded = sorted(m for m in sys.modules if m.startswith(("hypcrit", "numpy")))
print(json.dumps({"code": code, "loaded": loaded}))
"""


def test_refused_converge_loads_no_numpy(tmp_path):
    # the limit member is built before `convergence` loads numpy, so a
    # family whose action is refused exits 2 on scalar code: a key its kind
    # does not read, an odd valence, a Schottky pair below the systole
    tree = {"kind": "tree", "valence": 4, "edge_length": "1"}
    family = {"family": "f", "vary": "edge_length", "schedule": ["3/2"], "limit": "1"}
    cases = [
        (tree, {**family, "vary": "L"}, "ScenarioError: tree action has unknown keys 'L'"),
        ({**tree, "valence": 5}, family,
         "ParameterError: group structure needs even valence, got 5"),
        ({"kind": "schottky", "L": 4.0, "min_systole": 0.5},
         {**family, "vary": "L", "schedule": [0.125], "limit": 0.0625},
         "CertificationError: family member 1/16 failed certification: systole below"),
    ]
    for i, (action, converge, error) in enumerate(cases):
        path = tmp_path / ("family%d.scn" % i)
        path.write_text(json.dumps({"schema": 1, "action": action, "converge": converge}),
                        encoding="utf-8")
        got = _run(_REJECTED_CONVERGE, str(path), str(tmp_path / str(i)))
        assert got["code"] == 2
        assert not [m for m in got["loaded"] if m == "numpy" or m.startswith("numpy.")]
        assert "hypcrit.convergence" not in got["loaded"]
        audit = json.loads((tmp_path / str(i) / "audits.json").read_text(encoding="utf-8"))
        assert audit["error"].startswith(error), audit


def bench_setup_code():
    """`SETUP_CODE` of bench/run.py, the benchmark's set-up probe, read
    without importing the harness."""
    tree = ast.parse((ROOT / "bench" / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "SETUP_CODE":
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py defines no SETUP_CODE")


#: every hypcrit module the set-up probe loads: `setup_s` times these alone
SETUP_MODULES = ["hypcrit"] + [
    "hypcrit." + m for m in ("cli", "errors", "isometries", "orbits", "space", "words")
]


def test_benchmark_setup_loads_only_the_action_builders():
    code = bench_setup_code() + (
        "\nimport json\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith(('hypcrit', 'numpy')))))\n"
    )
    # one probe per benchmark workload: tree, then plane-audit, whose
    # ping-pong certificates are surveyed with scalar words
    for stems in (
        ("f2_tree", "tree_rescale_family"),
        ("schottky_L4", "schottky_family", "plane_delta0_negative", *COUNTEREXAMPLES),
    ):
        scenarios = [str(SRC / "scenarios" / (s + ".scn")) for s in stems]
        assert _run(code, *scenarios) == SETUP_MODULES


_SETUP_STDLIB = """
import json, sys
print(json.dumps(sorted(m for m in ("dataclasses", "importlib.resources") if m in sys.modules)))
"""


def test_benchmark_setup_loads_no_dataclasses():
    # without `site`, which may load importlib.resources itself; the probe
    # reads the scenarios by path
    scenarios = [str(p) for p in sorted((SRC / "scenarios").glob("*.scn"))]
    assert _run(bench_setup_code() + _SETUP_STDLIB, *scenarios, flags=("-S",)) == []


_ALL_COMMANDS = """
import json, sys
from hypcrit import cli
codes = [cli.main([cmd, "--scenario", scn, "--out", sys.argv[1] + "/" + cmd]) for cmd, scn in (
    ("entropy", "f2_tree"), ("boundary", "f2_tree"), ("verify", "f2_tree"),
    ("converge", "schottky_family"),
)]
print(json.dumps([codes, "dataclasses" in sys.modules]))
"""


def test_subcommands_load_no_dataclasses(tmp_path):
    assert _run(_ALL_COMMANDS, str(tmp_path)) == [[0, 0, 0, 0], False]


_SITE_FREE_RUN = """
import json, sys
from hypcrit import cli
code = cli.main(["entropy", "--scenario", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps([code, sorted(m for m in ("dataclasses", "importlib.resources")
                               if m in sys.modules)]))
"""


def test_scenario_read_by_path_loads_no_importlib_resources(tmp_path):
    # `python -S`: no `site` module loads importlib.resources first; only a
    # bundled scenario read by bare name needs it
    scenario = str(SRC / "scenarios" / "counterexample_translation.scn")
    assert _run(_SITE_FREE_RUN, scenario, str(tmp_path), flags=("-S",)) == [2, []]


_VERIFY_RUN = """
import json, sys
from hypcrit import cli
code = cli.main(["verify", "--scenario", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith(("hypcrit", "numpy")))]))
"""


def test_plane_lemma_audit_loads_no_numpy(tmp_path):
    # the negative control builds, certifies and sweeps in scalar code
    scenario = str(SRC / "scenarios" / "plane_delta0_negative.scn")
    code, loaded = _run(_VERIFY_RUN, scenario, str(tmp_path / "out"))
    assert code == 1
    assert loaded == sorted(SETUP_MODULES + ["hypcrit.geometry_checks"])


_BOUNDARY_RUN = _VERIFY_RUN.replace('"verify"', '"boundary"')


def test_tree_boundary_audit_loads_no_numpy(tmp_path):
    # the tree measure's masses count words level by level; only the plane
    # rules import `arrays` and numpy
    code, loaded = _run(_BOUNDARY_RUN, "f2_tree", str(tmp_path / "out"))
    assert code == 0
    assert loaded == sorted(SETUP_MODULES + ["hypcrit.boundary"])


def test_bundled_entropy_runs_load_no_arrays(tmp_path):
    # neither bundled entropy run computes a covering or packing number,
    # the only readers of `arrays` in `entropy`
    for name in ("f2_tree", "schottky_L4"):
        code, loaded = _run(_VERIFY_RUN.replace('"verify"', '"entropy"'), name, str(tmp_path / name))
        assert code == 0
        assert "hypcrit.entropy" in loaded and "hypcrit.arrays" not in loaded


_THREADS = """
import json, os
import hypcrit.cli
import numpy
print(json.dumps([len(os.listdir("/proc/self/task")), os.environ["OPENBLAS_NUM_THREADS"]]))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_cli_keeps_one_thread_after_numpy_loads():
    assert _run(_THREADS) == [1, "1"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_cli_keeps_a_preset_blas_thread_count():
    assert _run(_THREADS, OPENBLAS_NUM_THREADS="2")[1] == "2"


#: numpy routines that call BLAS: the CLI runs OpenBLAS on one thread
#: because no hypcrit module calls one
BLAS = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg"}


def blas_calls(source):
    """(line, name) of each matrix product (@), attribute read or import of
    a BLAS-backed numpy routine, and anything under linalg."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            out.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS:
            out.append((node.lineno, node.attr))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
            out += [(node.lineno, n) for n in names if BLAS & set(n.split("."))]
    return sorted(out)


def test_scan_finds_blas_calls():
    source = (
        "import numpy as np\n"
        "c = a @ b\n"
        "c @= b\n"
        "x = np.einsum('ij,j', a, v).dot(v)\n"
        "from numpy.linalg import norm\n"
        "from numpy import inner\n"
        "inner = 1\n"
    )
    assert blas_calls(source) == [
        (2, "@"), (3, "@"), (4, "dot"), (4, "einsum"), (5, "numpy.linalg"), (6, "inner")
    ]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_blas_calls(path):
    assert blas_calls(path.read_text(encoding="utf-8")) == []
