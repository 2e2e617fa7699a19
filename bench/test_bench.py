"""Tests of the benchmark's own machinery: tracer arithmetic and patching,
and the run checker. They run no workload."""

import json
from fractions import Fraction

import pytest

import run
import tracing
import workloads
from tracing import Tracer, layer_metrics


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_of_nested_calls():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    inner = tr.wrap("m.inner", lambda: clock.advance(2.0))

    def outer_body():
        clock.advance(1.0)
        inner()
        clock.advance(0.5)
        inner()
        clock.advance(0.25)

    outer = tr.wrap("m.outer", outer_body)
    outer()
    o, i = tr.stats["m.outer"], tr.stats["m.inner"]
    assert (o.calls, o.total_s, o.self_s) == (1, 5.75, 1.75)
    assert (i.calls, i.total_s, i.self_s) == (2, 4.0, 4.0)
    assert tr.self_total() == o.total_s


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def boom():
        clock.advance(3.0)
        raise KeyError("x")

    inner = tr.wrap("m.boom", boom)

    def outer_body():
        clock.advance(1.0)
        with pytest.raises(KeyError):
            inner()

    tr.wrap("m.outer", outer_body)()
    assert tr.stats["m.boom"].self_s == 3.0
    assert tr.stats["m.outer"].self_s == 1.0


def test_function_is_recorded_through_cli_and_local_import():
    run.import_cli()
    import hypcrit
    from hypcrit import cli, convergence, orbits

    original = orbits.enumerate_orbit_ball
    tr = Tracer()
    tr.install()
    try:
        assert cli.enumerate_orbit_ball is orbits.enumerate_orbit_ball is hypcrit.enumerate_orbit_ball
        assert orbits.enumerate_orbit_ball is not original
        action = orbits.tree_action(valence=4, edge_length=Fraction(1))
        cli.enumerate_orbit_ball(action, Fraction(2))
        assert tr.stats["orbits.enumerate_orbit_ball"].calls == 1
        # run_continuity_experiment imports enumerate_orbit_ball inside its body
        config = convergence.ContinuityConfig(
            ball_T=4.0, window=(1.0, 4.0), eps_ladder=(1.0,), h_tolerance=1.0,
            K_bound=100.0, param_scale=float,
        )
        convergence.run_continuity_experiment(
            lambda ell: orbits.tree_action(valence=4, edge_length=ell),
            [Fraction(3, 2)], Fraction(1), config,
        )
        assert tr.stats["orbits.enumerate_orbit_ball"].calls == 3  # + limit + member
        # N = 2*3^depth - 1: depth 2 (direct call), 4 (limit), 4 (edge 3/2, T=6)
        assert tr.counters["orbits.entries"] == 17 + 161 + 161
    finally:
        tr.uninstall()
    assert orbits.enumerate_orbit_ball is original
    assert cli.enumerate_orbit_ball is original


def test_missing_function_is_reported_missing_not_zero():
    run.import_cli()
    tr = Tracer()
    tr.install(wrapped={"space": ["pairwise_distances", "no_such_function"]})
    tr.uninstall()
    assert tr.missing == ["space.no_such_function"]
    metrics = layer_metrics(tr)
    assert metrics["space.pairwise_distances.self_s"] == (0.0, "s")
    assert metrics["space.distances_to_point.self_s"] == (None, "s")


def test_private_helpers_are_never_traced():
    wrapped = [n for names in tracing.WRAPPED.values() for n in names]
    assert not [n for n in wrapped if n.startswith("_")]
    with pytest.raises(ValueError):
        Tracer().install(wrapped={"cli": ["_radius"]})


def test_cli_is_invoked_without_threads():
    for workload in workloads.WORKLOADS.values():
        for r in workload.runs:
            argv = run.cli_args(r, "s.scn", "out")
            flags = {a for a in argv if a.startswith("--")}
            assert flags <= {"--scenario", "--out", "--seed"}


def _write(path, name, obj):
    path.mkdir(parents=True, exist_ok=True)
    (path / name).write_text(json.dumps(obj), encoding="utf-8")


def test_checker_rejects_wrong_exit_code_and_tree_ball_count(tmp_path):
    entropy = workloads.WORKLOADS["tree"].runs[0]
    assert entropy.command == "entropy"
    good = {"passed": True, "ball": {"count": workloads.TREE_BALL_COUNT}}
    _write(tmp_path, "estimate.json", good)
    assert workloads.check_run(entropy, 0, tmp_path, {}) == []
    assert workloads.check_run(entropy, 1, tmp_path, {})
    _write(tmp_path, "estimate.json", dict(good, ball={"count": workloads.TREE_BALL_COUNT - 1}))
    assert workloads.check_run(entropy, 0, tmp_path, {})


def test_checker_requires_the_documented_rejection(tmp_path):
    runs = {r.label: r for r in workloads.WORKLOADS["plane-audit"].runs}
    elliptic = runs["entropy-counterexample_elliptic"]
    _write(tmp_path, "audits.json", {"error": "ClassificationError: elliptic", "passed": False})
    assert workloads.check_run(elliptic, 2, tmp_path, {}) == []
    assert workloads.check_run(elliptic, 0, tmp_path, {})
    _write(tmp_path, "audits.json", {"error": "CertificationError: ping-pong", "passed": False})
    assert workloads.check_run(elliptic, 2, tmp_path, {})
    negative = runs["verify-plane_delta0_negative"]
    rows = [{"name": "thin", "passed": True}]
    _write(tmp_path, "audits.json", {"passed": False, "geodesic_lemmas": {"rows": rows}})
    assert workloads.check_run(negative, 1, tmp_path, {})  # no failing row


def test_digest_changes_are_counted_not_failed():
    recorded = {"a.json": {"any": "1"}, "b.json": {"seeds": {"7": "2"}}}
    assert workloads.digest_changes(recorded, 7, {"a.json": "1", "b.json": "2"}) == (0, 0)
    assert workloads.digest_changes(recorded, 7, {"a.json": "x", "b.json": "2"}) == (1, 0)
    assert workloads.digest_changes(recorded, 8, {"a.json": "1", "b.json": "2"}) == (0, 1)
    assert workloads.digest_changes(recorded, 7, {"a.json": "1"}) == (1, 0)
