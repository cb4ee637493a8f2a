"""Command-line surface.

Verbs:

* ``evaluate``       full protocol: tasks x grasps -> scorecards, metric
                     heatmaps, ranking report
* ``inspect-model``  FK / Jacobian of a robot file at a configuration
* ``metrics-at``     per-waypoint metric values for one grasp (debugging)
* ``pareto``         re-rank an existing scorecards.csv

A run's waypoint count is its task file's ``resample_count`` alone.
``metrics-at`` keeps only its grasp in the loaded spec (``dataclasses.replace``),
so ``metrics.evaluate_task`` reads the task as evaluated, on ``evaluate``'s grid.

Everything is randomness-free; two runs on identical inputs produce
byte-identical outputs, in one process or in two.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import fileio
from .chain import forward_kinematics, geometric_jacobian, link_frames_axes
from .fileio import SchemaError
from .ik import default_seed
from .metrics import FLAGS, OBJECTIVES, check_ik_seed, evaluate_task
from .ranking import build_report, check_weights


class CliError(Exception):
    pass


def _sanitize(name: str) -> str:
    out = re.sub(r"[^A-Za-z0-9_.-]+", "_", name).strip("_")
    return "task" if out in ("", ".", "..") else out


def _output_dirs(out: Path, tasks: list[Path], specs) -> list[Path]:
    """One directory under ``out`` per task, checked before any
    evaluation: two tasks never share one."""
    owners: dict[str, Path] = {}
    for path, spec in zip(tasks, specs):
        name = _sanitize(spec.name)
        if name in owners:
            raise CliError(f"tasks {owners[name]} and {path} both write to {out / name}")
        owners[name] = path
    return [out / name for name in owners]


def _score(task_path, model, spec):
    """``evaluate_task``; an error raised while scoring names the task file."""
    try:
        return evaluate_task(model, spec)
    except ValueError as exc:
        raise CliError(f"{task_path}: {exc}") from exc


def _write_task(outdir: Path, model_name: str, spec, scorecards, weights, allow_infeasible) -> int:
    """Write one task's result files into ``outdir``: the scorecards, one
    heatmap CSV per objective, the long-format normalized scalars and the
    report; returns the task's exit status."""
    outdir.mkdir(exist_ok=True)
    infeasible = [sc.grasp_id for sc in scorecards if not sc.feasible]
    status = 2 if infeasible and not allow_infeasible else 0
    if status:
        print(f"{spec.name}: infeasible grasps: {', '.join(infeasible)}", file=sys.stderr)
    feasible = [sc for sc in scorecards if sc.feasible]
    if not feasible:
        fileio.write_scorecards_csv(outdir / "scorecards.csv", scorecards, None)
        # an earlier run's other result files would describe other grasps
        for name in ("report.json", "scalars_long.csv", *(f"profile_{key}.csv" for key in OBJECTIVES)):
            (outdir / name).unlink(missing_ok=True)
        print(f"{spec.name}: no feasible grasps", file=sys.stderr)
        return 2

    report = build_report(scorecards, weights=weights)
    fileio.write_scorecards_csv(outdir / "scorecards.csv", scorecards, report)
    ids = [sc.grasp_id for sc in feasible]
    for name in OBJECTIVES:
        fileio.write_profile_csv(
            outdir / f"profile_{name}.csv", feasible[0].s, ids, [sc.profiles[name] for sc in feasible]
        )
    fileio.write_scalars_long_csv(outdir / "scalars_long.csv", report.scores)
    fileio.write_report_json(
        outdir / "report.json", fileio.report_to_dict(report, spec.name, model_name, scorecards)
    )
    _echo(
        f"{spec.name}: feasible {len(feasible)}/{len(scorecards)}, "
        f"conflict={str(report.conflict).lower()}, pareto=[{', '.join(report.pareto)}] "
        f"-> {outdir}"
    )
    return status


def _echo(line: str) -> None:
    """Print a line on stdout, escaping what its encoding cannot hold (a
    grasp or task name under an ASCII locale) rather than failing a run
    whose files are written."""
    try:
        print(line)
    except UnicodeEncodeError as exc:
        print(line.encode(exc.encoding, "backslashreplace").decode(exc.encoding))


def _parse_weights(text: str) -> tuple[float, float, float]:
    """Parse and check ``--weights`` before any evaluation runs."""
    try:
        return tuple(float(w) for w in check_weights([float(p) for p in text.split(",")]))
    except ValueError as exc:
        raise CliError(f"--weights: {exc}") from exc


def _parse_config_vector(text: str) -> np.ndarray:
    try:
        q = np.array([float(p) for p in text.split(",")])
    except ValueError as exc:
        raise CliError(f"--config: {exc}") from exc
    if not np.all(np.isfinite(q)):
        raise CliError(f"--config: values must be finite, got {text}")
    return q


def _cmd_evaluate(args) -> int:
    """Evaluate every task; returns the process exit status.

    Nonzero when any grasp is infeasible (unless allowed) or when a task
    has no feasible grasp at all.  Every input is loaded and checked, and
    ``--out`` created, before the first task is scored.
    """
    weights = None if args.weights is None else _parse_weights(args.weights)
    out, tasks = Path(args.out), [Path(t) for t in args.task]
    model = fileio.load_robot(Path(args.robot))
    specs = [fileio.load_task(path) for path in tasks]
    outdirs = _output_dirs(out, tasks, specs)
    for spec in specs:
        check_ik_seed(model, spec)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"--out: cannot create directory ({exc})") from exc
    status = 0
    for path, spec, outdir in zip(tasks, specs, outdirs):
        scorecards = _score(path, model, spec)
        try:
            status = max(
                status, _write_task(outdir, model.name, spec, scorecards, weights, args.allow_infeasible)
            )
        except OSError as exc:
            raise CliError(f"{exc.filename or outdir}: cannot write ({exc.strerror or exc})") from exc
    return status


def _cmd_inspect_model(args) -> int:
    model = fileio.load_robot(args.robot)
    q = default_seed(model) if args.config is None else _parse_config_vector(args.config)
    if q.shape[0] != model.n:
        raise CliError(f"--config has {q.shape[0]} values, robot has {model.n} joints")
    _echo(f"model: {model.name} ({model.n} joints)")
    for i, joint in enumerate(model.joints):
        print(
            f"  joint {i}: {joint.kind:9s} axis=({', '.join(f'{a:g}' for a in joint.axis)}) "
            f"limits=({joint.limits[0]:g}, {joint.limits[1]:g})"
        )
    kin = link_frames_axes(model, q)
    pose = forward_kinematics(kin)
    print(f"q: {', '.join(f'{x:g}' for x in q)}")
    print(f"tool position: {', '.join(f'{x:.6g}' for x in pose[4:])}")
    print(f"tool quaternion (w,x,y,z): {', '.join(f'{x:.6g}' for x in pose[:4])}")
    print("jacobian:")
    for row in geometric_jacobian(kin):
        print("  " + "  ".join(f"{x: .6g}" for x in row))
    return 0


def _cmd_metrics_at(args) -> int:
    model = fileio.load_robot(args.robot)
    spec = fileio.load_task(args.task)
    grasps = {g.id: g for g in spec.grasps}
    if args.grasp not in grasps:
        raise CliError(f"grasp {args.grasp!r} not in task (ids: {', '.join(grasps)})")
    k, n = args.waypoint, spec.resample_count
    if not 0 <= k < n:
        raise CliError(f"--waypoint must be in [0, {n - 1}]")
    (sc,) = _score(args.task, model, replace(spec, grasps=(grasps[args.grasp],)))
    if not sc.feasible:
        print(f"grasp {args.grasp}: infeasible (first waypoint unreachable)")
        return 2
    print(f"grasp {args.grasp}, waypoint {k}/{n - 1}:")
    print(f"  s            = {sc.s[k]:.6g}")
    print(f"  tov a^2      = {sc.profiles['tov'][k]:.6g}")
    print(f"  |tau|^2      = {sc.profiles['tme'][k]:.6g}")
    print(f"  m_e          = {sc.profiles['tem'][k]:.6g}")
    for name in FLAGS:
        print(f"  {name:<13}= {bool(sc.flags[name][k])}")
    print(f"scalars: H_tov={sc.h_tov:.6g} H_tme={sc.h_tme:.6g} H_tem={sc.h_tem:.6g}")
    return 0


def _cmd_pareto(args) -> int:
    scorecards = fileio.read_scorecards_csv(args.scorecards)
    weights = None if args.weights is None else _parse_weights(args.weights)
    try:
        report = build_report(scorecards, weights=weights)
    except ValueError as exc:
        raise CliError(f"{args.scorecards}: {exc}") from exc
    payload = fileio.report_to_dict(report, args.scorecards, "", scorecards)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="postgrasp",
        description="Rank grasp candidates by manipulability, torque effort and "
        "effective mass along a post-grasp trajectory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="run the full evaluation protocol")
    p_eval.add_argument("--robot", required=True, help="robot model JSON")
    p_eval.add_argument(
        "--task", required=True, action="append", help="task JSON (repeatable)"
    )
    p_eval.add_argument("--out", required=True, help="output directory")
    p_eval.add_argument("--weights", default=None, help="scalarization weights a,b,c")
    p_eval.add_argument("--allow-infeasible", action="store_true")
    p_eval.set_defaults(func=_cmd_evaluate)

    p_inspect = sub.add_parser("inspect-model", help="FK/Jacobian at a configuration")
    p_inspect.add_argument("--robot", required=True)
    p_inspect.add_argument("--config", default=None, help="comma-separated joint values")
    p_inspect.set_defaults(func=_cmd_inspect_model)

    p_metrics = sub.add_parser("metrics-at", help="metric values at one waypoint")
    p_metrics.add_argument("--robot", required=True)
    p_metrics.add_argument("--task", required=True)
    p_metrics.add_argument("--grasp", required=True, help="grasp id")
    p_metrics.add_argument("--waypoint", type=int, required=True)
    p_metrics.set_defaults(func=_cmd_metrics_at)

    p_pareto = sub.add_parser("pareto", help="re-rank an existing scorecards.csv")
    p_pareto.add_argument("--scorecards", required=True)
    p_pareto.add_argument("--weights", default=None)
    p_pareto.set_defaults(func=_cmd_pareto)

    return parser


def main(argv=None) -> int:
    """Run one verb; returns its exit status, argparse's own included."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        try:
            status = args.func(args)
        except (CliError, SchemaError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 2
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return status
    except BrokenPipeError:
        # stdout's reader left early: what is still buffered goes to
        # devnull, so the flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
