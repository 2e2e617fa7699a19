"""hypcrit benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program measured is the
checkout's own ``src/``. The benchmark writes the workload's scenarios
with the seed, then:

* ``--trace 0``: sets up a fresh interpreter SETUP_REPEATS times
  (``setup_s``), then repeats passes of the workload's CLI runs, one
  ``python -m hypcrit.cli`` process at a time, while at least half of
  another pass is expected to fall within S seconds (at least one pass).
  Reports the end-to-end metrics (times are medians over passes).
* ``--trace 1``: runs one pass in-process traced (``tracing.py``), then
  one untraced, and reports the per-layer metrics.

Every run is checked (``workloads.py``). The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
Scratch files live in ``.bench_work/`` and are removed at exit.
"""

import argparse
import contextlib
import gc
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import workloads
from tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = Path(__file__).resolve().parent / "golden_digests.json"

SETUP_REPEATS = 9
#: every run ends within this many seconds; a child still alive is killed
RUN_BUDGET_S = 170.0

SETUP_CODE = """
import sys
from hypcrit import cli
from hypcrit.errors import CertificationError, ClassificationError
for path in sys.argv[1:]:
    try:
        cli.build_action(cli.load_scenario(path)["action"])
    except (CertificationError, ClassificationError):
        pass
"""


@dataclass
class Outcome:
    """One finished CLI run."""

    run: workloads.CliRun
    exit_code: object
    wall_s: float
    cpu_s: object  # None for an in-process run
    maxrss_mb: object  # None for an in-process run
    problems: list
    digests: dict


# ---------------------------------------------------------------------------
# child processes


def spawn(argv, cwd, log_path, deadline):
    """Run argv to completion; returns (exit code, wall seconds, rusage)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def setup_once(scenarios, cwd, deadline):
    paths = [str(path) for path, _ in scenarios.values()]
    code, wall, _ = spawn(
        [sys.executable, "-c", SETUP_CODE, *paths], cwd, Path(cwd) / "setup.log", deadline
    )
    if code != 0:
        raise RuntimeError("set-up probe exited %d; see setup.log" % code)
    return wall


def cli_args(run, scenario_path, outdir):
    """hypcrit.cli arguments of one run: the seed is in the scenario file."""
    return [run.command, "--scenario", str(scenario_path), "--out", str(outdir)]


def cli_pass(workload, scenarios, pass_dir, deadline):
    pass_dir.mkdir(parents=True)
    out = []
    for run in workload.runs:
        path, scenario = scenarios[run.scenario]
        outdir = pass_dir / run.label
        argv = [sys.executable, "-m", "hypcrit.cli", *cli_args(run, path, outdir)]
        code, wall, usage = spawn(argv, pass_dir, pass_dir / (run.label + ".log"), deadline)
        out.append(_finish(run, code, wall, usage.ru_utime + usage.ru_stime,
                           usage.ru_maxrss / 1024.0, outdir, scenario))
    return out


def _finish(run, code, wall, cpu, rss, outdir, scenario):
    problems = workloads.check_run(run, code, outdir, scenario)
    digests = workloads.report_digests(outdir) if outdir.exists() else {}
    return Outcome(run, code, wall, cpu, rss, problems, digests)


# ---------------------------------------------------------------------------
# in-process passes (per-layer metrics)


def import_cli():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from hypcrit import cli

    if SRC not in Path(cli.__file__).resolve().parents:
        raise RuntimeError("imported hypcrit from %s, not %s" % (cli.__file__, SRC))
    return cli


def inprocess_pass(cli, workload, scenarios, pass_dir):
    pass_dir.mkdir(parents=True)
    out = []
    for run in workload.runs:
        path, scenario = scenarios[run.scenario]
        outdir = pass_dir / run.label
        argv = cli_args(run, path, outdir)
        gc.collect()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sys.stderr):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse refusing the arguments
            code = exc.code
        except Exception:  # a crash fails this run; the pass goes on
            traceback.print_exc()
            code = None
        wall = time.perf_counter() - t0
        out.append(_finish(run, code, wall, None, None, outdir, scenario))
    return out


# ---------------------------------------------------------------------------
# metrics


def digest_totals(workload, seed, outcomes):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    recorded = golden.get(workload.name, {})
    changed = unrecorded = 0
    for o in outcomes:
        c, u = workloads.digest_changes(recorded.get(o.run.label, {}), seed, o.digests)
        changed += c
        unrecorded += u
    return changed, unrecorded


def command_seconds(outcomes):
    """Wall seconds per subcommand, summed over the runs of one pass."""
    out = {}
    for o in outcomes:
        out[o.run.command] = out.get(o.run.command, 0.0) + o.wall_s
    return out


def end_to_end(workload, scenarios, seed, seconds, work):
    t_start = time.monotonic()
    deadline = t_start + RUN_BUDGET_S
    setup = [setup_once(scenarios, work, deadline) for _ in range(SETUP_REPEATS)]
    passes = []
    while True:
        t_pass = time.monotonic()
        passes.append(cli_pass(workload, scenarios, work / ("pass%d" % len(passes)), deadline))
        # another pass only if at least half of it is expected to fall within
        # the time asked for, so that runs measure about that long on average
        now = time.monotonic()
        if now + 0.5 * (now - t_pass) > t_start + min(seconds, 0.6 * RUN_BUDGET_S):
            break
    outcomes = [o for p in passes for o in p]
    metrics = {
        "wall_s": (statistics.median(sum(o.wall_s for o in p) for p in passes), "s"),
        "cpu_s": (statistics.median(sum(o.cpu_s for o in p) for p in passes), "s"),
        "peak_rss_mb": (max(o.maxrss_mb for o in outcomes), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    per_command = {
        cmd: statistics.median(command_seconds(p)[cmd] for p in passes)
        for cmd in command_seconds(passes[0])
    }
    changed, unrecorded = digest_totals(workload, seed, outcomes)
    summary = {
        "pass_wall_s": [sum(o.wall_s for o in p) for p in passes],
        "subcommand_wall_s": per_command,
        "setup_s_all": setup,
        "report_digest_changes": changed,
        "report_digest_unrecorded": unrecorded,
    }
    return outcomes, metrics, summary


def traced(workload, scenarios, seed, work):
    cli = import_cli()
    # the traced pass goes first, like a fresh CLI process; the untraced pass
    # then runs warm, so trace.overhead_s errs on the high side
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        spans = inprocess_pass(cli, workload, scenarios, work / "traced")
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    plain = inprocess_pass(cli, workload, scenarios, work / "untraced")
    outcomes = spans + plain
    metrics = layer_metrics(tracer)
    per_command = command_seconds(plain)
    for cmd in ("entropy", "boundary", "verify", "converge"):
        metrics["cli.%s_s" % cmd] = (per_command.get(cmd, 0.0), "s")
    run_wall = sum(o.wall_s for o in spans)
    self_total = tracer.self_total()
    changed, unrecorded = digest_totals(workload, seed, outcomes)
    failed = sum(1 for o in outcomes if o.problems)
    metrics.update({
        "trace.overhead_s": (run_wall - sum(o.wall_s for o in plain), "s"),
        "trace.unattributed_s": (traced_wall - self_total, "s"),
        "trace.coverage": (self_total / traced_wall, "ratio"),
        "run.fail_ratio": (failed / len(outcomes), "ratio"),
        "reports.digest_changes": (changed, "count"),
    })
    summary = {
        "missing_functions": tracer.missing,
        "report_digest_unrecorded": unrecorded,
        "spans": {
            name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s}
            for name, s in sorted(tracer.stats.items()) if s.calls
        },
    }
    return outcomes, metrics, summary


# ---------------------------------------------------------------------------
# provenance and main


def provenance():
    info = {
        "nproc": os.cpu_count(),
        "cpu_model": None,
        "python": platform.python_version(),
        "numpy": None,
        "git_commit": None,
        "hypcrit_version": None,
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    with contextlib.suppress(ImportError):
        import numpy

        info["numpy"] = numpy.__version__
    m = re.search(r'__version__ = "([^"]+)"', (SRC / "hypcrit" / "__init__.py").read_text())
    info["hypcrit_version"] = m.group(1) if m else None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            info["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True,
            ).stdout.strip()
    return info


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "hypcrit" / "cli.py").is_file():
        print("no hypcrit sources at %s; run from a source checkout" % SRC, file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    work = WORK / ("%s-seed%d-trace%d-%d" % (workload.name, args.seed, args.trace, os.getpid()))
    work.mkdir(parents=True)
    try:
        scenarios = workload.write_scenarios(SRC, args.seed, work)
        if args.trace:
            outcomes, metrics, summary = traced(workload, scenarios, args.seed, work)
        else:
            outcomes, metrics, summary = end_to_end(
                workload, scenarios, args.seed, args.seconds, work
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if names != set(metrics):
        print("metrics %s do not match BENCHMARK.json %s" % (sorted(metrics), sorted(names)),
              file=sys.stderr)
        return 3
    failed = [o for o in outcomes if o.problems]
    for o in failed:
        print("FAILED %s: %s" % (o.run.label, "; ".join(o.problems)), file=sys.stderr)
    print("provenance " + json.dumps(provenance(), sort_keys=True))
    print("summary " + json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
