"""The benchmark's reachability goldens, checked from the program's own
output: each grasp's reach string ("1" per waypoint IK reached, "0" per
unreachable one; null for an infeasible grasp) is rebuilt from
``report.json``'s ``diagnostics.flag_waypoints.unreachable`` and the
workload's waypoint count, with no hook into the tracking.  The task files
come from ``bench/workloads.py`` and the goldens from ``bench/goldens/``;
both are only read."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from postgrasp.cli import main

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
CASES = [("reach_limit", variant) for variant in range(4)] + [("dense", 0)]


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def reach_string(unreachable: list[int], waypoints: int) -> str:
    flags = ["1"] * waypoints
    for i in unreachable:
        flags[i] = "0"
    return "".join(flags)


@pytest.mark.parametrize(("name", "variant"), CASES)
def test_report_rebuilds_the_golden_reach(workloads, tmp_path, name, variant):
    workload = workloads.WORKLOADS[name]
    gold = json.loads(workload.golden_path(variant).read_text())
    files = workloads.write_tasks(workload, variant, tmp_path / "in")
    # the golden was recorded from these very task files
    assert [sha for _, sha in files] == [task["sha256"] for task in gold["tasks"]]
    argv = ["evaluate", "--robot", str(workloads.ROBOT), "--out", str(tmp_path / "out")]
    for path, _ in files:
        argv += ["--task", str(path)]
    assert main(argv + list(workload.cli_args)) == 0
    mismatched = []
    for task in gold["tasks"]:
        diagnostics = json.loads((tmp_path / "out" / task["name"] / "report.json").read_text())["diagnostics"]
        assert sorted(diagnostics) == sorted(g["id"] for g in task["grasps"])
        for grasp in task["grasps"]:
            block = diagnostics[grasp["id"]]
            reach = None if block is None else reach_string(block["flag_waypoints"]["unreachable"], workload.waypoints)
            if reach != grasp["reach"]:
                mismatched.append(f"{task['name']}/{grasp['id']}: {reach} != {grasp['reach']}")
    assert mismatched == []
