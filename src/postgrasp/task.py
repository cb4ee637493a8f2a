"""Manipulation tasks and grasp candidates.

A task prescribes a timed sequence of object-CoM poses; a grasp candidate
is a fixed object-to-gripper transform.  Composing the two yields the
gripper trajectory the arm must track, and the normalized arc length of
the object path provides the integration variable for all path metrics.

A trajectory's data are arrays: its unit quaternions, translations and
times.  Every grasp of a task is composed on the object trajectory's arrays
(``gripper_trajectory``) into a new trajectory's arrays, with no ``Pose``
built; IK and the path metrics read the gripper trajectory's arrays.  The
``Pose`` objects of a trajectory are derived only when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chain import validate_inertia_tensor
from .geometry import Pose, Rotation, quaternion_matrices, quaternion_product, unit_quaternion

START_TIME_TOLERANCE = 1e-9  # s, on the first waypoint's time


@dataclass(frozen=True, eq=False, init=False)
class TaskTrajectory:
    """Pose waypoints (of the object CoM, or of the gripper once a grasp is
    composed in) at strictly increasing times starting at 0.

    The data are read-only arrays: the unit quaternions (w, x, y, z), the
    translations and the times.  ``TaskTrajectory(poses, times)`` stacks
    them from poses, ``from_arrays`` copies them in.  The rotation matrices
    and the poses are derived on first read and kept; each derived pose
    holds its stored quaternion as it is, not normalised again, so a
    trajectory stacked from poses gives those poses back exactly."""

    times: np.ndarray  # (m,)
    quaternions: np.ndarray  # (m, 4)
    translations: np.ndarray  # (m, 3)

    def __init__(self, poses, times):
        poses = tuple(poses)
        quats = [(p.rotation.w, p.rotation.x, p.rotation.y, p.rotation.z) for p in poses]
        self._store(quats, [p.translation for p in poses], times)

    @classmethod
    def from_arrays(cls, quaternions, translations, times) -> "TaskTrajectory":
        """A trajectory of (m, 4) unit quaternions, each already normalised
        as ``Rotation`` normalises, (m, 3) translations and (m,) times."""
        trajectory = object.__new__(cls)
        trajectory._store(quaternions, translations, times)
        return trajectory

    def _store(self, quaternions, translations, times):
        arrays = {
            "times": np.array(times, dtype=float).reshape(-1),
            "quaternions": np.array(quaternions, dtype=float).reshape(-1, 4),
            "translations": np.array(translations, dtype=float).reshape(-1, 3),
        }
        t = arrays["times"]
        m = arrays["quaternions"].shape[0]
        if m < 2:
            raise ValueError("trajectory needs at least two waypoints")
        if t.shape[0] != m or arrays["translations"].shape[0] != m:
            raise ValueError("times and poses must have equal length")
        if abs(t[0]) > START_TIME_TOLERANCE:
            raise ValueError("trajectory must start at t = 0")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("waypoint times must be strictly increasing")
        for name, value in arrays.items():
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def total_time(self) -> float:
        return float(self.times[-1])

    @cached_property
    def rotation_matrices(self) -> np.ndarray:
        """(m, 3, 3) rotation matrices of the quaternions, read-only."""
        matrices = quaternion_matrices(self.quaternions)
        matrices.flags.writeable = False
        return matrices

    @cached_property
    def poses(self) -> tuple[Pose, ...]:
        """The waypoints as poses, each wrapping its stored quaternion and
        translation row as they are."""
        return tuple(
            Pose.from_parts(Rotation.from_unit(*q), t)
            for q, t in zip(self.quaternions.tolist(), self.translations)
        )


@dataclass(frozen=True, eq=False)
class GraspCandidate:
    """Fixed transform from the object CoM frame to the gripper frame."""

    id: str
    transform: Pose

    def __post_init__(self):
        if not self.id:
            raise ValueError("grasp id must be non-empty")


@dataclass(frozen=True, eq=False)
class RigidObject:
    """Mass and CoM inertia tensor of the manipulated object."""

    mass: float
    inertia: np.ndarray

    def __post_init__(self):
        if not self.mass > 0.0:
            raise ValueError(f"object mass must be positive, got {self.mass}")
        m = validate_inertia_tensor(self.inertia, "object inertia tensor")
        m.flags.writeable = False
        object.__setattr__(self, "inertia", m)


@dataclass(frozen=True, eq=False)
class TaskSpec:
    """A parsed task file: keyframe trajectory, object, grasp set and the
    evaluation settings the file carries."""

    name: str
    trajectory: TaskTrajectory
    obj: RigidObject
    grasps: tuple[GraspCandidate, ...]
    gravity: np.ndarray
    resample_count: int
    ik_seed: np.ndarray | None = None


def gripper_trajectory(task: TaskTrajectory, grasp: GraspCandidate) -> TaskTrajectory:
    """Pointwise composition of the object poses with the grasp transform,
    on the task's times: ``p.compose(grasp.transform)`` per waypoint, bit
    for bit, computed on the task's arrays without building a ``Pose``.

    Each rotation is the raw quaternion product normalised on its floats by
    ``unit_quaternion``, once, as ``Rotation.__mul__`` does; numpy's ``**2``
    on an array squares by multiplication, so it would not always match.
    Each translation is t + R t_grasp by the same matrix-vector product as
    ``Rotation.apply``.
    """
    g = grasp.transform
    r = g.rotation
    products = quaternion_product(task.quaternions.T, (r.w, r.x, r.y, r.z))
    quats = [unit_quaternion(*q) for q in zip(*(p.tolist() for p in products))]
    translations = task.translations + task.rotation_matrices @ g.translation
    return TaskTrajectory.from_arrays(quats, translations, task.times)


def path_parameter(task: TaskTrajectory) -> np.ndarray:
    """Normalized arc length s in [0, 1] of the object translation.

    A zero-length (stationary) path degenerates to a uniform grid so that
    quadrature weights stay well defined.
    """
    seg = np.linalg.norm(np.diff(task.translations, axis=0), axis=1)
    total = float(seg.sum())
    n = len(task)
    if total < 1e-12:
        return np.linspace(0.0, 1.0, n)
    s = np.concatenate([[0.0], np.cumsum(seg)]) / total
    s[-1] = 1.0
    return s


def generate_grasp_sweep(
    edge_start: Pose, edge_end: Pose, count: int, id_prefix: str = "g"
) -> list[GraspCandidate]:
    """Grasps with translations linearly spaced from edge_start to edge_end,
    all sharing edge_start's orientation."""
    if count < 2:
        raise ValueError("grasp sweep needs count >= 2")
    t0 = edge_start.translation
    t1 = edge_end.translation
    rot = edge_start.rotation
    grasps = []
    for i, u in enumerate(np.linspace(0.0, 1.0, count)):
        grasps.append(
            GraspCandidate(f"{id_prefix}{i + 1:02d}", Pose(rot, (1.0 - u) * t0 + u * t1))
        )
    return grasps


def resample(task: TaskTrajectory, count: int) -> TaskTrajectory:
    """Densify keyframes to ``count`` waypoints uniform in time, with linear
    interpolation of translation and slerp of rotation."""
    if count < 2:
        raise ValueError("resample count must be >= 2")
    times = np.linspace(0.0, task.total_time, count)
    poses = []
    for t in times:
        k = int(np.searchsorted(task.times, t, side="right") - 1)
        k = min(max(k, 0), len(task) - 2)
        t0, t1 = task.times[k], task.times[k + 1]
        u = (t - t0) / (t1 - t0)
        u = min(max(u, 0.0), 1.0)
        a, b = task.poses[k], task.poses[k + 1]
        poses.append(
            Pose(a.rotation.slerp(b.rotation, u), (1.0 - u) * a.translation + u * b.translation)
        )
    return TaskTrajectory(tuple(poses), times)
