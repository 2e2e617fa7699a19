"""Record the report digests of every workload at the current commit.

    python3 bench/record_digests.py

Runs each workload's CLI runs once (untimed) and writes
``golden_digests.json`` next to this file. A report file whose bytes are
the same for seeds 0 and 1 is recorded once, as seed-independent. The
others are recorded for every seed below SEEDS; only their runs are repeated
for seeds 2 and up. Nothing is written if any run fails its check.
"""

import dataclasses
import json
import shutil
import sys
import time

import run
import workloads

SEEDS = 32


def digests_of_pass(workload, seed, runs, work):
    dest = work / ("%s-seed%d" % (workload.name, seed))
    dest.mkdir(parents=True)
    scenarios = workload.write_scenarios(run.SRC, seed, dest)
    partial = dataclasses.replace(workload, runs=tuple(runs))
    outcomes = run.cli_pass(partial, scenarios, dest / "pass", time.monotonic() + 600)
    for o in outcomes:
        if o.problems:
            sys.exit("%s seed %d failed, nothing recorded: %s"
                     % (o.run.label, seed, "; ".join(o.problems)))
    return {o.run.label: o.digests for o in outcomes}


def record(workload, work):
    first = digests_of_pass(workload, 0, workload.runs, work)
    second = digests_of_pass(workload, 1, workload.runs, work)
    recorded, seeded = {}, set()
    for r in workload.runs:
        files = recorded[r.label] = {}
        for name, digest in first[r.label].items():
            if second[r.label].get(name) == digest:
                files[name] = {"any": digest}
            else:
                files[name] = {"seeds": {"0": digest, "1": second[r.label][name]}}
                seeded.add(r.label)
    rerun = [r for r in workload.runs if r.label in seeded]
    for seed in range(2, SEEDS) if rerun else ():
        for label, files in digests_of_pass(workload, seed, rerun, work).items():
            for name, digest in files.items():
                entry = recorded[label][name]
                if "any" in entry:
                    if entry["any"] != digest:
                        sys.exit("%s/%s changes with seed %d only" % (label, name, seed))
                else:
                    entry["seeds"][str(seed)] = digest
    return recorded


def main():
    work = run.WORK / "record-digests"
    work.mkdir(parents=True)
    try:
        golden = {
            name: record(w, work) for name, w in workloads.WORKLOADS.items()
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
