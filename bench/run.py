"""postgrasp benchmark: runs one workload and prints every metric by name and unit.

    python3 bench/run.py --workload reference --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Each run generates the workload's task files from the seed, times several
cold starts of a fresh interpreter (``setup_s``), then runs the workload in
one fresh single-threaded process that calls ``postgrasp.cli.main(["evaluate",
...])`` once per task, again and again until ``--seconds`` is used, and
checks every pass against the golden record.  ``--trace 1`` instead reports
the per-layer metrics from spans recorded around calls into each module
(see spans.py) and writes the spans as JSON lines under ``.bench_work/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import golden
import spans
import workloads

HERE = Path(__file__).resolve().parent
WORK = workloads.ROOT / ".bench_work"
SETUP_STARTS = 15  # cold starts per run; setup_s is their median
TIME_LIMIT_S = 170  # a run must end within 180 s

UNITS = {
    key: {m["name"]: m["unit"] for m in workloads.CONTRACT[key]} for key in ("end_to_end", "per_layer")
}
# the kernel may run this much slower or faster inside the workload process
# than in the reference process before normalized times are refused
KERNEL_SHIFT_BOUND = next(m["bound"] for m in workloads.CONTRACT["end_to_end"] if m["name"] == "wall_s")
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")  # of the last line printed


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ, **golden.BLAS_ENV)
    env.pop("PYTHONPATH", None)  # the worker puts src/ first on its own path
    return env


def _run_child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=_child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return proc


def _cold_starts(plan_path: Path) -> list[tuple[float, float]]:
    """(raw seconds, kernel seconds) of SETUP_STARTS cold starts, after one
    that warms the disk cache.  Each start ends when the child has set up;
    it then samples the calibration kernel, whose time normalizes the start."""
    starts = []
    for i in range(SETUP_STARTS + 1):
        t0 = time.perf_counter()
        proc = _run_child(["setup", str(plan_path)], timeout=60)
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        if i:
            starts.append((child["done"] - t0, child["kernel_s"]))
    return starts


def _git_commit() -> str:
    if not (workloads.ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=workloads.ROOT, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in workloads.PACKAGE.rglob("*.py"))


def stamp(written, environment: dict) -> dict:
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        **environment,
        "blas_threads_env": golden.BLAS_ENV,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "task_sha256": {path.name: sha for path, sha in written},
        "src_postgrasp_lines": _src_lines(),
    }


def _per_pass(passes: list[list[float]]) -> float:
    """Seconds per pass: the sum over tasks of each task's median call time."""
    return sum(statistics.median(calls) for calls in zip(*passes))


def end_to_end(workload, result: dict, starts: list[tuple[float, float]]) -> dict:
    wall = _per_pass(result["untraced"])
    return {
        "wall_s": wall,
        "pairs_per_s": workload.pairs / wall,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "setup_s": statistics.median(raw * calibrate.REFERENCE_S / kernel for raw, kernel in starts),
    }


def raw_times(result: dict, starts: list[tuple[float, float]]) -> dict:
    """The times before normalization, and the kernel shift run.py checks."""
    raw = {
        "wall_s": _per_pass(result["untraced_raw"]),
        "kernel_s": statistics.fmean(result["untraced_kernel"]),
        "reference_kernel_s": statistics.fmean(result["untraced_reference"]),
        "kernel_shift": kernel_shift(result),
    }
    if starts:
        raw["setup_s"] = statistics.median(t for t, _ in starts)
    return raw


def kernel_shift(result: dict) -> float:
    """Median over the untraced passes' samples of the kernel time inside the
    workload process over that in the reference process at the same moment
    (calibrate.py).  The median ignores a sample that a hiccup hit on one
    side; a slowdown the program causes moves every sample."""
    pairs = zip(result["untraced_kernel"], result["untraced_reference"], strict=True)
    return statistics.median(inside / reference for inside, reference in pairs)


def check_kernel_shift(shift: float, lines: list[str]) -> None:
    """Refuse normalized times when the program has slowed the kernel itself."""
    if abs(shift - 1) > KERNEL_SHIFT_BOUND:
        raise BenchError(
            "\n".join(lines) + f"\nthe calibration kernel ran {shift:.3f} times as long inside "
            f"the workload process as in the reference process (allowed: 1 +- {KERNEL_SHIFT_BOUND}); "
            "normalized times would not read the machine's speed"
        )


def per_layer(workload, result: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced passes, and the names found absent."""
    n = len(result["traced"])
    rows = result["spans"]
    absent = set(result["absent"])
    counts: dict[tuple[str, str], int] = {}
    for name, stage, value in result["counts"]:
        counts[name, stage] = value

    def row(name):
        if name in absent:
            raise KeyError(name)
        return rows.get(name, {"calls": 0, "incl_ns": 0, "self_ns": 0, "ik_calls": 0})

    def per_pass_s(names, key="self_ns"):
        return sum(row(x)[key] for x in names) / n / 1e9

    def mean_us(name):
        r = row(name)
        return r["self_ns"] / r["calls"] / 1e3 if r["calls"] else 0.0

    def count(name, stage=None):
        if name in absent:
            raise KeyError(name)
        return sum(v for (x, s), v in counts.items() if x == name and stage in (None, s)) / n

    def layer(name):
        return [x for x, lay in spans.LAYER_OF.items() if lay == name]

    def reach():
        if any(task is None for task in result["traced_reach"]):
            raise KeyError("reachability flags of ik.track_trajectory")
        return [flags for task in result["traced_reach"] for flags in task]

    def attempted():
        return sum(1 if f is None else len(f) for f in reach())

    def ik_calls(name):
        return row(name)["ik_calls"] / n

    lfa = "chain.link_frames_axes"
    formulas = {
        "chain.passes_per_pair": lambda: count(lfa, "outside_ik") / workload.pairs,
        "chain.ik_passes_per_pair": lambda: count(lfa, "ik") / workload.pairs,
        "chain.fk_us": lambda: mean_us("chain.forward_kinematics"),
        "chain.jacobian_us": lambda: mean_us("chain.geometric_jacobian"),
        "chain.self_s": lambda: per_pass_s(layer("chain")),
        "geometry.compose_per_pair": lambda: (
            count("geometry.Pose.compose") + count("geometry.Rotation.from_axis_angle")
        )
        / workload.pairs,
        "dynamics.crba_calls": lambda: row("dynamics.mass_matrix")["calls"] / n,
        "dynamics.crba_us": lambda: mean_us("dynamics.mass_matrix"),
        "dynamics.rnea_calls": lambda: row("dynamics.inverse_dynamics")["calls"] / n,
        "dynamics.rnea_us": lambda: mean_us("dynamics.inverse_dynamics"),
        "dynamics.augmented_mass_us": lambda: mean_us("dynamics.augmented_mass_matrix"),
        "dynamics.self_s": lambda: per_pass_s(layer("dynamics")),
        "ik.track_s": lambda: per_pass_s(["ik.track_trajectory"], "incl_ns"),
        "ik.self_s": lambda: per_pass_s(["ik.track_trajectory"]),
        "ik.jacobians_per_waypoint": lambda: ik_calls("chain.geometric_jacobian") / attempted(),
        "ik.fk_per_iteration": lambda: (
            ik_calls("chain.forward_kinematics") / ik_calls("chain.geometric_jacobian")
        ),
        "ik.converged_ratio": lambda: sum(f.count("1") for f in reach() if f) / attempted(),
        "ik.waypoints_attempted": attempted,
        "ik.infeasible_grasps": lambda: sum(f is None for f in reach()),
        "metrics.tov_s": lambda: per_pass_s(["metrics.tov"], "incl_ns"),
        "metrics.tme_s": lambda: per_pass_s(["metrics.torque_effort"], "incl_ns"),
        "metrics.tem_s": lambda: per_pass_s(["metrics.tem"], "incl_ns"),
        "metrics.self_s": lambda: per_pass_s(layer("metrics")),
        "task.prep_s": lambda: per_pass_s(layer("task")),
        "fileio.load_s": lambda: per_pass_s(["fileio.load_robot", "fileio.load_task"]),
        "fileio.write_s": lambda: per_pass_s(
            [x for x in layer("fileio") if x not in ("fileio.load_robot", "fileio.load_task")]
        ),
        "fileio.bytes_written": lambda: result["bytes_written"][-1],
        "ranking.report_s": lambda: per_pass_s(layer("ranking")),
        "cli.self_s": lambda: per_pass_s([spans.ROOT_SPAN]),
        "trace.wall_s": lambda: per_pass_s([spans.ROOT_SPAN], "incl_ns"),
        "trace.overhead_ratio": lambda: _per_pass(result["traced"]) / _per_pass(result["untraced"]),
        "trace.raw_wall_s": lambda: _per_pass(result["untraced_raw"]),
        "trace.kernel_shift": lambda: kernel_shift(result),
    }
    metrics, missing = {}, []
    for name, formula in formulas.items():
        try:
            metrics[name] = formula()
        except KeyError as exc:  # derived from a name a refactor removed
            missing.append(f"{name} (needs {exc.args[0]})")
        except ZeroDivisionError:
            missing.append(f"{name} (no calls to divide by)")
    return metrics, missing


def run_workload(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Run one workload; returns its record and report lines.  The record
    holds the result object's keys (RESULT_KEYS), the stamp and the raw times."""
    started = time.perf_counter()
    if not (workloads.PACKAGE / "__init__.py").exists():
        raise BenchError(f"program source not found: {workloads.PACKAGE} is missing")
    gold_path = workload.golden_path(seed)
    if not gold_path.exists():
        raise BenchError(
            f"no golden record {gold_path.name}; record it with "
            f"python3 bench/golden.py --workload {workload.name} --seed {seed}"
        )
    gold = json.loads(gold_path.read_text())
    tag = f"{workload.name}-s{seed}-t{int(trace)}"
    work = WORK / f"{tag}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        written = workloads.write_tasks(workload, seed, work / "tasks")
        recorded = [t["sha256"] for t in gold["tasks"]]
        if [sha for _, sha in written] != recorded:
            raise BenchError(f"generated task files differ from those {gold_path.name} was recorded for")
        (WORK / "traces").mkdir(parents=True, exist_ok=True)
        plan = {
            "src": str(workloads.SRC),
            "robot": str(workloads.ROBOT),
            "tasks": [str(path) for path, _ in written],
            "cli_args": list(workload.cli_args),
            "golden": str(gold_path),
            "out": str(work / "out"),
            "result": str(work / "result.json"),
            "spans": str(WORK / "traces" / f"{workload.name}-s{seed}.jsonl"),
            "seconds": seconds,
            "trace": trace,
        }
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan))
        starts = [] if trace else _cold_starts(plan_path)
        budget = TIME_LIMIT_S - (time.perf_counter() - started)
        _run_child(["run", str(plan_path)], timeout=max(budget, 1.0))
        result = json.loads((work / "result.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = [
        f"workload {workload.name}, seed {seed} (variant {workload.variant(seed)}): "
        f"{workload.tasks} task(s) x {workload.grasps} grasps x {workload.waypoints} waypoints "
        f"= {workload.pairs} pairs per pass; {len(result['untraced'])} untraced pass(es), "
        f"{len(result['traced'])} traced",
    ]
    if trace:
        metrics, missing = per_layer(workload, result)
        units = UNITS["per_layer"]
        covered = sum(
            metrics.get(x, 0.0)
            for x in ("chain.self_s", "dynamics.self_s", "ik.self_s", "metrics.self_s", "task.prep_s",
                      "fileio.load_s", "fileio.write_s", "ranking.report_s", "cli.self_s")
        )
        lines.append(f"  layer self times sum to {covered:.4f} s of traced wall {metrics['trace.wall_s']:.4f} s")
        lines.append(f"  spans: {plan['spans']}")
        lines += [f"  absent: {m}" for m in missing]
    else:
        metrics = end_to_end(workload, result, starts)
        units = UNITS["end_to_end"]
        normalized = (raw * calibrate.REFERENCE_S / kernel for raw, kernel in starts)
        lines.append(f"  setup_s is the median of {len(starts)} cold starts: " + ", ".join(f"{t:.3f}" for t in normalized))
    raw = raw_times(result, starts)
    lines.append("  raw (not normalized): " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    check_kernel_shift(raw["kernel_shift"], lines)
    ratio = result["failed"] / result["attempted"]
    lines.append(f"  failed_ratio {ratio:.6g} ({result['failed']} of {result['attempted']} grasps checked)")
    lines += [f"  failure: {m}" for m in result["failures"]]
    lines += [
        f"  absent: reachability flags of task {t} (postgrasp.ik.track_trajectory was not called once per "
        "grasp or returned no reachable array); not compared, everything else was"
        for t in result["unobservable"]
    ]
    lines += [f"  {name:<28} {value:>16.6f} {units[name]}" for name, value in metrics.items()]
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "stamp": stamp(written, result["environment"]),
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "raw": raw,
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    lines.append("stamp " + json.dumps(record["stamp"], sort_keys=True))
    return record, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = workloads.BENCHMARKED if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            record, lines = run_workload(workloads.WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
            print("\n".join(lines))
            print(json.dumps({key: record[key] for key in RESULT_KEYS}), flush=True)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
