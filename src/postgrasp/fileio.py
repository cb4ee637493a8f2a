"""JSON model/task ingestion and CSV/JSON result emission.

Input schemas are versioned (``schema_version: 1``) and strict: unknown
or repeated fields and non-finite numbers are rejected and invariant
violations raise :class:`SchemaError` with the offending field path.
``report.json`` has its own version (``REPORT_SCHEMA_VERSION``).  All
numeric output is written with 17 significant digits so values round-trip
exactly, and every writer is deterministic byte for byte for identical
inputs.  Files are read and written as UTF-8, whatever the locale.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from .chain import ChainModel, JointSpec, LinkSpec
from .dynamics import GRAVITY_DEFAULT
from .geometry import Pose, Rotation, unit_quaternion
from .metrics import FLAGS, OBJECTIVES, GraspScorecard
from .ranking import NormalizedScores, RankingReport
from .task import (
    START_TIME_TOLERANCE,
    GraspCandidate,
    TaskSpec,
    TaskTrajectory,
    generate_grasp_sweep,
)

SCHEMA_VERSION = 1  # robot and task files
# report.json; 2 added the per-grasp ``diagnostics`` and the ``normalization`` blocks
REPORT_SCHEMA_VERSION = 2
# most waypoints (``resample_count``) or sweep grasps (``sweep.count``) a task
# file may ask for; no memory bound: scoring takes ~9 KB a waypoint, ~0.9 GB at it
MAX_COUNT = 100_000
_SWEEP_ROTATION_TOLERANCE = 1e-6  # rad, between a sweep's end and start rotations

_DATA_DIR = Path(__file__).resolve().parent / "data"


class SchemaError(ValueError):
    """Input file violates the schema; message carries the field path."""


def reference_robot_path(name: str) -> Path:
    """Path of a robot model shipped with the package (e.g. 'planar_rr')."""
    return _DATA_DIR / "robots" / f"{name}.json"


def reference_task_path(name: str) -> Path:
    """Path of a task file shipped with the package (e.g. 'task1')."""
    return _DATA_DIR / "tasks" / f"{name}.json"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _read_text(path, newline=None) -> str:
    """An input file's text, decoded as UTF-8 less a leading byte-order
    mark (a spreadsheet saves one); errors name the file."""
    try:
        with open(path, encoding="utf-8-sig", newline=newline) as fh:
            return fh.read()
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read file ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: cannot decode as UTF-8 ({exc})") from exc


class _Repeats(dict):
    """A JSON object that repeats a key, which ``repeated`` names; every
    object a loader reads passes ``_check_keys``, which refuses it."""


def _object(pairs: list) -> dict:
    """``json``'s object hook: a ``_Repeats`` when a key repeats."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        obj = _Repeats(obj)
        obj.repeated = dict.fromkeys(k for k in keys if keys.count(k) > 1)
    return obj


def _load_json(path) -> dict:
    path = Path(path)
    try:
        data = json.loads(_read_text(path), object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: top level must be a JSON object")
    return data


def _check_keys(obj: dict, required: tuple, optional: tuple, path: str):
    """Refuse a non-object, a repeated key, an unknown field, or a missing
    required field; the first missing field in ``required``'s order is the
    one named."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object")
    if isinstance(obj, _Repeats):
        raise SchemaError(f"{path}: repeated key(s) {', '.join(map(repr, obj.repeated))}")
    for key in obj:
        if key not in required and key not in optional:
            raise SchemaError(f"{path}.{key}: unknown field")
    for key in required:
        if key not in obj:
            raise SchemaError(f"{path}.{key}: missing field")


def _finite(x) -> bool:
    """Whether a parsed JSON value is a number that is a finite float: not a
    bool, nor ``NaN``, ``Infinity`` or a literal too large for a float."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer beyond the float range
        return False


def _number(obj, key, path) -> float:
    v = obj[key]
    if not _finite(v):
        raise SchemaError(f"{path}.{key}: expected a finite number")
    return float(v)


def _count(obj, key, path) -> int:
    """A waypoint or grasp count: an integer in [2, MAX_COUNT]."""
    v = obj[key]
    if not isinstance(v, int) or isinstance(v, bool):
        raise SchemaError(f"{path}.{key}: expected an integer")
    if v < 2:
        raise SchemaError(f"{path}.{key}: must be >= 2")
    if v > MAX_COUNT:
        raise SchemaError(f"{path}.{key}: must be <= {MAX_COUNT}")
    return v


def _string(obj, key, path) -> str:
    v = obj[key]
    if not isinstance(v, str):
        raise SchemaError(f"{path}.{key}: expected a string")
    return v


def _vector(obj, key, path, length) -> np.ndarray:
    v = obj[key]
    if not isinstance(v, list) or len(v) != length or not all(map(_finite, v)):
        raise SchemaError(f"{path}.{key}: expected {length} finite numbers")
    return np.array(v, dtype=float)


def _pose_parts(obj, path) -> tuple[np.ndarray, np.ndarray]:
    """The ``quaternion`` of ``obj``, its norm within 1e-6 of 1 but not
    normalised, and its ``translation``."""
    t = _vector(obj, "translation", path, 3)
    q = _vector(obj, "quaternion", path, 4)
    norm = float(np.linalg.norm(q))
    if abs(norm - 1.0) > 1e-6:
        raise SchemaError(f"{path}.quaternion: norm {norm:.9f} is not 1")
    return q, t


def _parse_pose(obj, path) -> Pose:
    _check_keys(obj, ("translation", "quaternion"), (), path)
    q, t = _pose_parts(obj, path)
    return Pose(Rotation(*q), t)


def _inertia_from_six(v: np.ndarray) -> np.ndarray:
    xx, yy, zz, xy, xz, yz = v
    return np.array([[xx, xy, xz], [xy, yy, yz], [xz, yz, zz]])


def _check_schema_version(data: dict, path: str):
    version = data["schema_version"]  # the integer 1: not true, not 1.0
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SchemaError(f"{path}.schema_version: unsupported version {version!r}")


def load_robot(path) -> ChainModel:
    """Load and validate a robot model file.  A joint's ``velocity_limit``
    is documentation only: it is checked (a positive number), not kept."""
    fname = str(path)
    data = _load_json(path)
    _check_keys(
        data,
        ("schema_version", "name", "base_pose", "joints", "links", "tool_transform"),
        ("notes",),
        fname,
    )
    _check_schema_version(data, fname)
    name = _string(data, "name", fname)
    base = _parse_pose(data["base_pose"], f"{fname}.base_pose")
    tool = _parse_pose(data["tool_transform"], f"{fname}.tool_transform")
    if not isinstance(data["joints"], list) or not data["joints"]:
        raise SchemaError(f"{fname}.joints: expected a non-empty list")
    if not isinstance(data["links"], list):
        raise SchemaError(f"{fname}.links: expected a list")
    if len(data["joints"]) != len(data["links"]):
        raise SchemaError(f"{fname}.links: need exactly one link per joint")

    joints = []
    for i, jobj in enumerate(data["joints"]):
        jpath = f"{fname}.joints[{i}]"
        _check_keys(jobj, ("kind", "axis", "origin", "limits", "velocity_limit"), (), jpath)
        kind = _string(jobj, "kind", jpath)
        if kind not in ("revolute", "prismatic"):
            raise SchemaError(f"{jpath}.kind: must be 'revolute' or 'prismatic'")
        axis = _vector(jobj, "axis", jpath, 3)
        if abs(np.linalg.norm(axis) - 1.0) > 1e-6:
            raise SchemaError(f"{jpath}.axis: must be a unit vector")
        limits = _vector(jobj, "limits", jpath, 2)
        if not limits[0] < limits[1]:
            raise SchemaError(f"{jpath}.limits: min must be < max")
        if not _number(jobj, "velocity_limit", jpath) > 0.0:
            raise SchemaError(f"{jpath}.velocity_limit: must be positive")
        origin = _parse_pose(jobj["origin"], f"{jpath}.origin")
        joints.append(JointSpec(kind=kind, axis=axis, origin=origin, limits=(limits[0], limits[1])))

    links = []
    for i, lobj in enumerate(data["links"]):
        lpath = f"{fname}.links[{i}]"
        _check_keys(lobj, ("mass", "com", "inertia"), (), lpath)
        mass = _number(lobj, "mass", lpath)
        if mass < 0.0:
            raise SchemaError(f"{lpath}.mass: must be non-negative, got {mass}")
        com = _vector(lobj, "com", lpath, 3)
        inertia = _inertia_from_six(_vector(lobj, "inertia", lpath, 6))
        try:
            links.append(LinkSpec(mass=mass, com=com, inertia=inertia))
        except ValueError as exc:
            raise SchemaError(f"{lpath}.inertia: {exc}") from exc

    return ChainModel(joints=tuple(joints), links=tuple(links), base_pose=base, tool_transform=tool, name=name)


def _parse_grasps(entries, path: str) -> list[GraspCandidate]:
    """Grasp candidates from a non-empty list of ``{"id", "translation",
    "quaternion"}`` objects with unique, non-empty ids; errors name the
    field under ``path``."""
    if not isinstance(entries, list) or not entries:
        raise SchemaError(f"{path}: expected a non-empty list")
    grasps = []
    seen = set()
    for i, g in enumerate(entries):
        gpath = f"{path}[{i}]"
        _check_keys(g, ("id", "translation", "quaternion"), (), gpath)
        gid = _string(g, "id", gpath)
        if not gid:
            raise SchemaError(f"{gpath}.id: must be non-empty")
        if gid in seen:
            raise SchemaError(f"{gpath}.id: duplicate grasp id {gid!r}")
        seen.add(gid)
        q, t = _pose_parts(g, gpath)
        grasps.append(GraspCandidate(gid, Pose(Rotation(*q), t)))
    return grasps


def load_task(path) -> TaskSpec:
    """Load and validate a task file.  ``notes`` and ``object.extents`` are
    documentation only: they are checked (a string; 3 numbers), not kept.
    The required, positive ``total_time_s`` is a checksum: it must equal the
    last waypoint's ``t`` within 1e-9, and nothing else reads it."""
    fname = str(path)
    data = _load_json(path)
    _check_keys(
        data,
        ("schema_version", "name", "total_time_s", "object", "object_waypoints"),
        ("gravity", "grasps", "sweep", "resample_count", "ik_seed", "notes"),
        fname,
    )
    _check_schema_version(data, fname)
    name = _string(data, "name", fname)
    total_time = _number(data, "total_time_s", fname)
    if not total_time > 0.0:
        raise SchemaError(f"{fname}.total_time_s: must be positive")

    gravity = _vector(data, "gravity", fname, 3) if "gravity" in data else GRAVITY_DEFAULT.copy()

    opath = f"{fname}.object"
    oobj = data["object"]
    _check_keys(oobj, ("mass", "inertia"), ("extents",), opath)
    mass = _number(oobj, "mass", opath)
    if not mass > 0.0:
        raise SchemaError(f"{opath}.mass: must be positive, got {mass}")
    inertia = _inertia_from_six(_vector(oobj, "inertia", opath, 6))
    if "extents" in oobj:
        _vector(oobj, "extents", opath, 3)
    try:
        # the trajectory is of the object's CoM frame
        obj = LinkSpec(mass=mass, com=np.zeros(3), inertia=inertia)
    except ValueError as exc:
        raise SchemaError(f"{opath}: {exc}") from exc

    wobj = data["object_waypoints"]
    if not isinstance(wobj, list) or len(wobj) < 2:
        raise SchemaError(f"{fname}.object_waypoints: expected a list of >= 2 waypoints")
    times = []
    quaternions = []
    translations = []
    for i, wp in enumerate(wobj):
        wpath = f"{fname}.object_waypoints[{i}]"
        _check_keys(wp, ("t", "translation", "quaternion"), (), wpath)
        times.append(_number(wp, "t", wpath))
        q, t = _pose_parts(wp, wpath)
        quaternions.append(unit_quaternion(*q))
        translations.append(t)
    times = np.array(times)
    if abs(times[0]) > START_TIME_TOLERANCE:
        raise SchemaError(f"{fname}.object_waypoints[0].t: trajectory must start at t = 0")
    if np.any(np.diff(times) <= 0.0):
        raise SchemaError(f"{fname}.object_waypoints: times must be strictly increasing")
    if abs(times[-1] - total_time) > 1e-9:
        raise SchemaError(
            f"{fname}.object_waypoints[{len(times) - 1}].t: last time must equal total_time_s"
        )
    trajectory = TaskTrajectory(quaternions, translations, times)

    has_grasps = "grasps" in data
    has_sweep = "sweep" in data
    if has_grasps == has_sweep:
        raise SchemaError(f"{fname}: exactly one of 'grasps' or 'sweep' is required")
    if has_grasps:
        grasps = _parse_grasps(data["grasps"], f"{fname}.grasps")
    else:
        spath = f"{fname}.sweep"
        sobj = data["sweep"]
        _check_keys(sobj, ("start", "end", "count"), (), spath)
        count = _count(sobj, "count", spath)
        start = _parse_pose(sobj["start"], f"{spath}.start")
        end = _parse_pose(sobj["end"], f"{spath}.end")
        # every grasp takes start's orientation; q and -q are one rotation
        dot = abs(float(start.rotation.quat @ end.rotation.quat))
        angle = 2.0 * math.acos(min(1.0, dot))
        if angle > _SWEEP_ROTATION_TOLERANCE:
            raise SchemaError(
                f"{spath}.end.quaternion: rotation differs from start's by {angle:.3g} rad;"
                " a sweep keeps start's orientation"
            )
        grasps = generate_grasp_sweep(start, end, count)

    resample_count = _count(data, "resample_count", fname) if "resample_count" in data else 50

    ik_seed = None
    if "ik_seed" in data:
        v = data["ik_seed"]
        if not isinstance(v, list) or not all(map(_finite, v)):
            raise SchemaError(f"{fname}.ik_seed: expected a list of finite numbers")
        ik_seed = np.array(v, dtype=float)

    if "notes" in data:
        _string(data, "notes", fname)
    return TaskSpec(
        name=name,
        trajectory=trajectory,
        obj=obj,
        grasps=tuple(grasps),
        gravity=gravity,
        resample_count=resample_count,
        ik_seed=ik_seed,
    )


_SCALARS = tuple(f"h_{name}" for name in OBJECTIVES)
_SCORECARD_COLUMNS = ("grasp_id", "feasible", *_SCALARS)
_COUNT_COLUMNS = tuple(f"n_{name}" for name in FLAGS)


def write_scorecards_csv(path, scorecards, report: RankingReport | None):
    """One row per grasp: raw scalars, normalized scalars, feasibility,
    Pareto membership and, per flag, the number of flagged waypoints.
    Infeasible grasps keep empty numeric cells, without a report every
    normalized cell is empty, and a card without flags leaves its count
    cells empty."""
    blank = [""] * len(OBJECTIVES)
    no_counts = [""] * len(FLAGS)
    norm_by_id = {}
    pareto = set()
    if report is not None:
        columns = [getattr(report.scores, name) for name in OBJECTIVES]
        for i, gid in enumerate(report.scores.grasp_ids):
            norm_by_id[gid] = [_fmt(column[i]) for column in columns]
        pareto = set(report.pareto)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([*_SCORECARD_COLUMNS, *(f"{c}_norm" for c in _SCALARS), "pareto", *_COUNT_COLUMNS])
        for sc in scorecards:
            if sc.feasible:
                raw = [_fmt(getattr(sc, c)) for c in _SCALARS]
                member = "true" if sc.grasp_id in pareto else "false"
                counts = sc.counts()
                counts = no_counts if counts is None else [str(counts[name]) for name in FLAGS]
                writer.writerow([sc.grasp_id, "true", *raw, *norm_by_id.get(sc.grasp_id, blank), member, *counts])
            else:
                writer.writerow([sc.grasp_id, "false", *blank, *blank, "false", *no_counts])


def read_scorecards_csv(path) -> list[GraspScorecard]:
    """Parse a scorecards.csv back into scalar-only scorecards (profiles are
    not stored in the CSV), with the flag counts when the file has their
    columns (files written before them do not).  Grasp ids must be
    non-empty and unique, ``feasible`` must be ``true`` or ``false``, and a
    feasible row needs its scalars; errors name the file, the
    row (the header is row 1) and the column.  A row's count cells are
    all empty (no counts) or all non-negative integers.  No column name
    repeats, and no row has more cells than the header."""
    cards = []
    seen = set()
    reader = csv.DictReader(io.StringIO(_read_text(path, newline=""), newline=""))
    header = reader.fieldnames or ()
    repeated = dict.fromkeys(c for c in header if header.count(c) > 1)
    if repeated:
        raise SchemaError(f"{path}: row 1: repeated column(s) {', '.join(map(repr, repeated))}")
    missing = [c for c in _SCORECARD_COLUMNS if c not in header]
    if missing:
        raise SchemaError(f"{path}: missing column(s) {', '.join(missing)}")
    has_counts = any(c in header for c in _COUNT_COLUMNS)
    missing = [c for c in _COUNT_COLUMNS if c not in header]
    if has_counts and missing:
        raise SchemaError(f"{path}: missing column(s) {', '.join(missing)}")
    for row in reader:
        where = f"{path}: row {reader.line_num}"
        if None in row:  # DictReader's key for the cells past the header's
            raise SchemaError(f"{where}: {len(header) + len(row[None])} cells, the header has {len(header)}")
        gid = row["grasp_id"]
        if not gid:
            raise SchemaError(f"{where}, column grasp_id: must be non-empty")
        if gid in seen:
            raise SchemaError(f"{where}, column grasp_id: duplicate grasp id {gid!r}")
        seen.add(gid)
        if row["feasible"] not in ("true", "false"):
            raise SchemaError(
                f"{where}, column feasible: expected true or false, got {row['feasible']!r}"
            )
        feasible = row["feasible"] == "true"
        scalars = {key: _scalar_cell(row, key, where) if feasible else None for key in _SCALARS}
        counts = None
        if feasible and has_counts and any(row[c] for c in _COUNT_COLUMNS):
            counts = {name: _count_cell(row, f"n_{name}", where) for name in FLAGS}
        cards.append(GraspScorecard(grasp_id=gid, feasible=feasible, **scalars, flag_counts=counts))
    return cards


def _count_cell(row: dict, column: str, where: str) -> int:
    cell = row[column]
    if cell is None or not cell.isdigit() or not cell.isascii():  # None: the row ends early
        raise SchemaError(f"{where}, column {column}: expected a non-negative integer, got {cell!r}")
    return int(cell)


def _scalar_cell(row: dict, column: str, where: str) -> float:
    try:
        value = float(row[column])
    except (TypeError, ValueError):  # TypeError: the row ends early
        raise SchemaError(f"{where}, column {column}: expected a number, got {row[column]!r}") from None
    if not math.isfinite(value):
        raise SchemaError(f"{where}, column {column}: expected a finite number, got {row[column]!r}")
    return value


def write_profile_csv(path, s, grasp_ids, rows):
    """Grasp x waypoint matrix of one metric (heatmap data): the header row
    carries the integration grid ``s`` (``task.path_parameter``), then one
    row of samples per grasp."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["grasp_id"] + [_fmt(si) for si in s])
        for gid, values in zip(grasp_ids, rows):
            writer.writerow([gid] + [_fmt(v) for v in values])


def write_scalars_long_csv(path, scores: NormalizedScores):
    """Long-format normalized scalars: one (grasp, metric, value) row per
    cell, ready for any plotting tool."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["grasp_id", "metric", "value_normalized"])
        for i, gid in enumerate(scores.grasp_ids):
            for name in OBJECTIVES:
                writer.writerow([gid, name, _fmt(getattr(scores, name)[i])])


def report_to_dict(report: RankingReport, task_name: str, robot_name: str, scorecards) -> dict:
    """The ``report.json`` record of a ranked task: the ranking, a
    ``diagnostics`` block per grasp (None for an infeasible grasp) and,
    per objective, the grasp that sets the normalization maximum and
    whether it has a flagged waypoint (``normalization``).

    A grasp's diagnostics hold its flagged-waypoint count per flag
    (``flag_counts``) and the flagged waypoints' indices
    (``flag_waypoints``); either is None when the scorecards do not hold
    it, as for cards read back from ``scorecards.csv``, which carries
    counts only."""
    by_id = {sc.grasp_id: sc for sc in scorecards}
    counts = {sc.grasp_id: sc.counts() for sc in scorecards if sc.feasible}
    out = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "task": task_name,
        "robot": robot_name,
        "n_grasps": len(scorecards),
        "n_feasible": sum(1 for sc in scorecards if sc.feasible),
        "infeasible": [sc.grasp_id for sc in scorecards if not sc.feasible],
        "argbest": report.argbest,
        "pareto_front": list(report.pareto),
        "conflict": report.conflict,
        "weights": list(report.weights) if report.weights is not None else None,
        "scalarized_order": (
            [[gid, score] for gid, score in report.scalarized]
            if report.scalarized is not None
            else None
        ),
        "diagnostics": {
            sc.grasp_id: _diagnostics(sc, counts[sc.grasp_id]) if sc.feasible else None for sc in scorecards
        },
        "normalization": {
            name: {
                "grasp_id": gid,
                "max": getattr(by_id[gid], f"h_{name}"),
                "flagged": None if counts[gid] is None else any(counts[gid].values()),
            }
            for name, gid in report.argmax.items()
        },
    }
    return out


def _diagnostics(sc: GraspScorecard, counts: dict[str, int] | None) -> dict:
    waypoints = None
    if sc.flags is not None:
        waypoints = {name: np.flatnonzero(sc.flags[name]).tolist() for name in FLAGS}
    return {"flag_counts": counts, "flag_waypoints": waypoints}


def write_report_json(path, report_dict: dict):
    Path(path).write_text(json.dumps(report_dict, indent=2, sort_keys=True) + "\n", encoding="utf-8")
