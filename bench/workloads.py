"""Benchmark workloads: each turns a seed into the task files the program sees.

The program never sees the seed.  A seed selects one of a workload's
variants (``seed % variants``); every variant has a committed golden record
under ``bench/goldens/``, so any seed can be checked for correctness.  Task
files are built with the standard library only (``random.Random`` seeded by
the variant and ``json``), so the same seed gives byte-identical inputs on
any machine and numpy version; golden records store the SHA-256 of each file
and the benchmark refuses to compare against goldens made from other inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "postgrasp"
DATA = PACKAGE / "data"
ROBOT = DATA / "robots" / "arm7.json"
GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
# names, units and reasons of the workloads and metrics are declared once, here
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WEIGHTS = "0.4,0.3,0.3"
TOP_DOWN = [0.0, 1.0, 0.0, 0.0]  # gripper quaternion of every shipped grasp


@dataclass(frozen=True)
class Workload:
    name: str
    variants: int
    grasps: int  # per task, infeasible grasps included
    waypoints: int
    tasks: int = 1
    cli_args: tuple[str, ...] = ("--weights", WEIGHTS)

    @property
    def pairs(self) -> int:
        """Grasp x waypoint pairs scored per pass over the workload."""
        return self.tasks * self.grasps * self.waypoints

    def variant(self, seed: int) -> int:
        return seed % self.variants

    def golden_path(self, seed: int) -> Path:
        return GOLDEN_DIR / f"{self.name}-v{self.variant(seed):02d}.json"


def _shipped_task(name: str) -> bytes:
    return (DATA / "tasks" / f"{name}.json").read_bytes()


def _task3() -> dict:
    return json.loads(_shipped_task("task3"))


def _dump(task: dict) -> bytes:
    return (json.dumps(task, indent=2, sort_keys=True) + "\n").encode()


def _scale_object(task: dict, factor: float) -> None:
    """Scale the object's mass and inertia together (same shape, other density)."""
    obj = task["object"]
    obj["mass"] = obj["mass"] * factor
    obj["inertia"] = [x * factor for x in obj["inertia"]]


def _grasp(gid: str, y: float) -> dict:
    return {"id": gid, "translation": [0.0, y, 0.1], "quaternion": list(TOP_DOWN)}


def _reference(variant: int) -> list[tuple[str, bytes]]:
    # the paper protocol exactly: shipped files, byte for byte
    return [(f"task{i}.json", _shipped_task(f"task{i}")) for i in (1, 2, 3)]


def _dense(variant: int) -> list[tuple[str, bytes]]:
    rng = random.Random(f"dense:{variant}")
    task = _task3()
    task["name"] = "dense"
    task.pop("grasps")
    shift = rng.uniform(-0.01, 0.01)
    task["sweep"] = {
        "start": {"translation": [0.0, -0.22 + shift, 0.1], "quaternion": list(TOP_DOWN)},
        "end": {"translation": [0.0, 0.22 + shift, 0.1], "quaternion": list(TOP_DOWN)},
        "count": DENSE.grasps,
    }
    # keyframes move by at most 2 mm, so the whole sweep stays reachable and
    # IK keeps needing about two iterations per waypoint on every variant
    for wp in task["object_waypoints"]:
        wp["translation"] = [x + rng.uniform(-0.002, 0.002) for x in wp["translation"]]
    _scale_object(task, rng.uniform(0.8, 1.2))
    task["resample_count"] = DENSE.waypoints
    return [("dense.json", _dump(task))]


def _reach_limit(variant: int) -> list[tuple[str, bytes]]:
    rng = random.Random(f"reach_limit:{variant}")
    task = _task3()
    task["name"] = "reach_limit"
    n = REACH_LIMIT.grasps
    # the geometry is the same on every variant: which waypoints hit the IK
    # iteration cap is a discrete outcome, and moving it would make the IK
    # cost jump between seeds.  Seeds vary the object and the grasp order.
    grasps = [_grasp(f"g{i + 1:02d}", -0.6 + 1.2 * i / (n - 1)) for i in range(n)]
    rng.shuffle(grasps)
    task["grasps"] = grasps
    _scale_object(task, rng.uniform(0.8, 1.2))
    task["resample_count"] = REACH_LIMIT.waypoints
    return [("reach_limit.json", _dump(task))]


def _tiny(variant: int) -> list[tuple[str, bytes]]:
    task = _task3()
    task["name"] = "tiny"
    task["grasps"] = [_grasp("g01", -0.1), _grasp("g02", 0.1)]
    task["resample_count"] = TINY.waypoints
    return [("tiny.json", _dump(task))]


REFERENCE = Workload("reference", variants=1, grasps=10, waypoints=50, tasks=3)
DENSE = Workload("dense", variants=16, grasps=32, waypoints=100)
REACH_LIMIT = Workload(
    "reach_limit", variants=16, grasps=16, waypoints=12, cli_args=("--weights", WEIGHTS, "--allow-infeasible")
)
# not in BENCHMARK.json: the self-test's 2 grasps x 5 waypoints
TINY = Workload("tiny", variants=1, grasps=2, waypoints=5)

_GENERATORS = {
    "reference": _reference,
    "dense": _dense,
    "reach_limit": _reach_limit,
    "tiny": _tiny,
}
WORKLOADS = {w.name: w for w in (REFERENCE, DENSE, REACH_LIMIT, TINY)}
BENCHMARKED = tuple(w["name"] for w in CONTRACT["workloads"])


def task_files(workload: Workload, seed: int) -> list[tuple[str, bytes]]:
    """(file name, contents) of every task file of the workload at ``seed``."""
    return _GENERATORS[workload.name](workload.variant(seed))


def write_tasks(workload: Workload, seed: int, directory: Path) -> list[tuple[Path, str]]:
    """Write the task files into ``directory``; returns (path, sha256) pairs."""
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for fname, payload in task_files(workload, seed):
        path = directory / fname
        path.write_bytes(payload)
        out.append((path, hashlib.sha256(payload).hexdigest()))
    return out
