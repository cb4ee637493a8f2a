"""Golden records of the benchmark's outputs, and the check against them.

A golden record holds, per task and grasp: feasibility, ``h_tov``/``h_tme``/
``h_tem`` as written by the program (17 significant digits), the Pareto
set, argbest, conflict, and the per-waypoint reachability flags of IK
tracking.  The check allows a relative drift of 1e-9 on the scalars and
requires everything else to match exactly.  A grasp with a waypoint that
hit the IK iteration cap is compared on feasibility and flags only: its
best-effort iterate is not a converged answer.  Pareto membership, argbest
and conflict of a task holding such a grasp are not compared either, since
they depend on its scalars.  When the flags cannot be observed (the program
no longer goes through ``postgrasp.ik.track_trajectory`` once per grasp),
they are reported as unobservable and everything else is still compared.
Every grasp with at least one mismatch counts once as failed.

Record the golden of another seed (that is, of the variant the seed selects):

    python3 bench/golden.py --workload dense --seed 7
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path

import workloads

DRIFT_TOLERANCE = 1e-9  # relative, on h_tov, h_tme and h_tem
SCALARS = ("h_tov", "h_tme", "h_tem")
OBJECTIVES = ("tov", "tme", "tem")
# single-threaded BLAS in every process that runs the program
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


@dataclass
class Report:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)
    unobservable: list[str] = field(default_factory=list)  # tasks whose flags were not compared


def _read_outputs(task_dir: Path) -> tuple[dict, dict | None]:
    """Scorecard rows by grasp id, and report.json (None when missing)."""
    rows = {}
    scorecards = task_dir / "scorecards.csv"
    if scorecards.exists():
        with open(scorecards, newline="") as fh:
            rows = {row["grasp_id"]: row for row in csv.DictReader(fh)}
    report_path = task_dir / "report.json"
    report = json.loads(report_path.read_text()) if report_path.exists() else None
    return rows, report


def _argbest_of(argbest: dict | None, gid: str) -> list[str] | None:
    if argbest is None:
        return None
    return [m for m in OBJECTIVES if argbest.get(m) == gid]


def task_facts(out: Path, name: str, reach: list[str | None]) -> dict:
    """The golden facts of one task from the program's outputs."""
    rows, report = _read_outputs(out / name)
    grasps = []
    for (gid, row), flags in zip(rows.items(), reach, strict=True):
        entry = {"id": gid, "feasible": row["feasible"] == "true", "reach": flags}
        for key in SCALARS:
            entry[key] = row[key] or None
        grasps.append(entry)
    return {
        "name": name,
        "conflict": report["conflict"],
        "argbest": report["argbest"],
        "pareto": report["pareto_front"],
        "grasps": grasps,
    }


def capped(grasp: dict) -> bool:
    return grasp["reach"] is not None and "0" in grasp["reach"]


def check(gold: dict, out: Path, observed: dict) -> Report:
    """Compare one pass's outputs with the golden record.

    ``observed`` maps task name to {"status", "error", "reach"}: the exit
    status of the evaluate call, a traceback if it raised, and the observed
    reachability flags (None when they could not be observed).
    """
    result = Report()
    for task in gold["tasks"]:
        name, grasps = task["name"], task["grasps"]
        result.attempted += len(grasps)
        failed: set[str] = set()

        def fail(gid: str, why: str) -> None:
            if gid not in failed:
                failed.add(gid)
                result.messages.append(f"{name}/{gid}: {why}")

        obs = observed.get(name)
        if obs is None or obs["error"] or obs["status"] != 0:
            why = "not evaluated" if obs is None else obs["error"] or f"exit status {obs['status']}"
            for g in grasps:
                fail(g["id"], why.strip().splitlines()[-1])
            result.failed += len(failed)
            continue
        rows, report = _read_outputs(out / name)
        reach = obs["reach"]
        observable = reach is not None and len(reach) == len(grasps)
        if not observable:
            result.unobservable.append(name)
            reach = [None] * len(grasps)
        # Pareto membership, argbest and conflict follow from every grasp's
        # scalars, so they are compared only in tasks without a capped grasp
        any_capped = any(capped(g) for g in grasps)
        for g, flags in zip(grasps, reach):
            gid = g["id"]
            row = rows.get(gid)
            if row is None:
                fail(gid, "missing from scorecards.csv")
                continue
            if (row["feasible"] == "true") != g["feasible"]:
                fail(gid, f"feasible={row['feasible']}, golden {g['feasible']}")
            if observable and flags != g["reach"]:
                fail(gid, f"reachability flags {flags}, golden {g['reach']}")
            if not g["feasible"] or capped(g):
                continue
            for key in SCALARS:
                try:
                    got, want = float(row[key]), float(g[key])
                except ValueError:
                    fail(gid, f"{key} unreadable: {row[key]!r}")
                    continue
                if not abs(got - want) <= DRIFT_TOLERANCE * abs(want):
                    fail(gid, f"{key}={row[key]}, golden {g[key]}")
            if any_capped:
                continue
            if (row["pareto"] == "true") != (gid in task["pareto"]):
                fail(gid, f"pareto={row['pareto']}, golden {gid in task['pareto']}")
            got_best = _argbest_of(report["argbest"] if report else None, gid)
            if got_best != _argbest_of(task["argbest"], gid):
                fail(gid, f"argbest of {got_best}, golden {_argbest_of(task['argbest'], gid)}")
        if not any_capped and (report is None or report["conflict"] != task["conflict"]):
            for g in grasps:
                fail(g["id"], "conflict flag differs from golden")
        result.failed += len(failed)
    return result


def record(workload: workloads.Workload, seed: int) -> Path:
    """Run the workload once at ``seed`` and write its golden record."""
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(workloads.SRC))
    import numpy as np
    from postgrasp import cli, fileio

    import spans

    work = workloads.ROOT / ".bench_work" / f"golden-{workload.name}-{workload.variant(seed)}"
    if work.exists():
        shutil.rmtree(work)
    written = workloads.write_tasks(workload, seed, work / "tasks")
    tasks = []
    with spans.ReachObserver() as observer:
        for path, sha in written:
            name = fileio.load_task(path).name
            argv = ["evaluate", "--robot", str(workloads.ROBOT), "--task", str(path)]
            status = cli.main(argv + ["--out", str(work / "out"), *workload.cli_args])
            if status != 0:
                raise SystemExit(f"{path.name}: evaluate exited with status {status}")
            reach = observer.take()
            if reach is None:
                raise SystemExit("reachability flags cannot be observed: see spans.ReachObserver")
            facts = task_facts(work / "out", name, reach)
            tasks.append({"file": path.name, "sha256": sha, **facts})
    shutil.rmtree(work)
    gold = {
        "workload": workload.name,
        "variant": workload.variant(seed),
        "recorded_with": {"python": sys.version.split()[0], "numpy": np.__version__},
        "tasks": tasks,
    }
    path = workload.golden_path(seed)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(gold, indent=1) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Record the golden record of one workload variant.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    path = record(workload, args.seed)
    gold = json.loads(path.read_text())
    for task in gold["tasks"]:
        n_capped = sum(capped(g) for g in task["grasps"])
        n_infeasible = sum(not g["feasible"] for g in task["grasps"])
        print(
            f"{path.name}: {task['name']}: {len(task['grasps'])} grasps, "
            f"{n_infeasible} infeasible, {n_capped} with capped waypoints, pareto={task['pareto']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
