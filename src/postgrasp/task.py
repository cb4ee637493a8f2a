"""Manipulation tasks and grasp candidates.

A task prescribes a timed sequence of object-CoM poses; a grasp candidate
is a fixed object-to-gripper transform.  Composing the two yields the
gripper trajectory the arm must track, and the normalized arc length of
the object path provides the integration variable for all path metrics.
The object is one rigid body (``chain.LinkSpec``, as a link is) given in
its own frame, the frame the trajectory moves, with its CoM at that
frame's origin.

A trajectory holds only its arrays: its unit quaternions, translations
and times.  Keyframes are resampled (``resample``) and every grasp of a
task is composed (``gripper_trajectory``, which derives the rotation
matrices it composes with) on those arrays into a new trajectory's arrays,
with no ``Pose`` built; IK and the path metrics read the gripper
trajectory's arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import LinkSpec
from .geometry import Pose, quaternion_matrices, quaternion_product, unit_quaternion

START_TIME_TOLERANCE = 1e-9  # s, on the first waypoint's time
# on |q . q - 1| of a stored quaternion; ``unit_quaternion``'s outputs are
# within 3 eps
_UNIT_TOLERANCE = 16 * np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class TaskTrajectory:
    """Pose waypoints (of the object CoM, or of the gripper once a grasp is
    composed in) at strictly increasing times starting at 0.

    The data are read-only copies of the (m, 4) unit quaternions
    (w, x, y, z), each already normalised as ``Rotation`` normalises, the
    (m, 3) translations and the (m,) times, all finite."""

    quaternions: np.ndarray
    translations: np.ndarray
    times: np.ndarray

    def __post_init__(self):
        for name, shape in (("quaternions", (-1, 4)), ("translations", (-1, 3)), ("times", (-1,))):
            value = np.array(getattr(self, name), dtype=float).reshape(shape)
            value.flags.writeable = False
            object.__setattr__(self, name, value)
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
        q, t, m = self.quaternions, self.times, self.quaternions.shape[0]
        if m < 2:
            raise ValueError("trajectory needs at least two waypoints")
        if t.shape[0] != m or self.translations.shape[0] != m:
            raise ValueError("quaternions, translations and times must have equal length")
        if np.any(np.abs(np.einsum("ij,ij->i", q, q) - 1.0) > _UNIT_TOLERANCE):
            raise ValueError("quaternions must have unit norm")
        if abs(t[0]) > START_TIME_TOLERANCE:
            raise ValueError("trajectory must start at t = 0")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("waypoint times must be strictly increasing")

    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def total_time(self) -> float:
        return float(self.times[-1])


@dataclass(frozen=True, eq=False)
class GraspCandidate:
    """Fixed transform from the object CoM frame to the gripper frame."""

    id: str
    transform: Pose

    def __post_init__(self):
        if not self.id:
            raise ValueError("grasp id must be non-empty")


@dataclass(frozen=True, eq=False)
class TaskSpec:
    """A task as evaluated: keyframe trajectory, object, grasp set and
    evaluation settings, from a task file or, in library code, with its
    grasps or waypoint count replaced by ``dataclasses.replace``.
    ``metrics.evaluate_task`` reads the task here."""

    name: str
    trajectory: TaskTrajectory
    obj: LinkSpec
    grasps: tuple[GraspCandidate, ...]
    gravity: np.ndarray
    resample_count: int
    ik_seed: np.ndarray | None = None


def gripper_trajectory(task: TaskTrajectory, grasp: GraspCandidate) -> TaskTrajectory:
    """Pointwise composition of the object poses with the grasp transform,
    ``p.compose(grasp.transform)`` per waypoint, on the task's arrays and
    times, with no ``Pose`` built."""
    g = grasp.transform
    r = g.rotation
    products = quaternion_product(task.quaternions.T, (r.w, r.x, r.y, r.z))
    # normalised on floats: numpy's ``**2`` on an array is not libm ``pow``
    quats = [unit_quaternion(*q) for q in zip(*(p.tolist() for p in products))]
    translations = task.translations + quaternion_matrices(task.quaternions) @ g.translation
    return TaskTrajectory(quats, translations, task.times)


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


def generate_grasp_sweep(edge_start: Pose, edge_end: Pose, count: int) -> list[GraspCandidate]:
    """Grasps ``g01``, ``g02``, ... with translations linearly spaced from
    edge_start to edge_end, all sharing edge_start's orientation."""
    if count < 2:
        raise ValueError("grasp sweep needs count >= 2")
    t0 = edge_start.translation
    t1 = edge_end.translation
    rot = edge_start.rotation
    grasps = []
    for i, u in enumerate(np.linspace(0.0, 1.0, count)):
        grasps.append(GraspCandidate(f"g{i + 1:02d}", Pose(rot, (1.0 - u) * t0 + u * t1)))
    return grasps


def resample(task: TaskTrajectory, count: int) -> TaskTrajectory:
    """Densify keyframes to ``count`` waypoints uniform in time, with linear
    interpolation of translation and slerp of rotation, on the keyframe
    arrays: each segment's arc is taken once (``_arc``), and no ``Pose`` is
    built."""
    if count < 2:
        raise ValueError("resample count must be >= 2")
    times = np.linspace(0.0, task.total_time, count)
    k = np.minimum(np.maximum(np.searchsorted(task.times, times, side="right") - 1, 0), len(task) - 2)
    t0, t1 = task.times[k], task.times[k + 1]
    u = np.minimum(np.maximum((times - t0) / (t1 - t0), 0.0), 1.0)
    translations = (1.0 - u)[:, None] * task.translations[k] + u[:, None] * task.translations[k + 1]
    arcs = [_arc(q0, q1) for q0, q1 in zip(task.quaternions[:-1], task.quaternions[1:])]
    quats = [_slerp(*arcs[i], v) for i, v in zip(k.tolist(), u.tolist())]
    return TaskTrajectory(quats, translations, times)


def _arc(q0: np.ndarray, q1: np.ndarray) -> tuple:
    """The ends of a slerp between two unit quaternions as float lists,
    the second flipped into the first's hemisphere, their angle theta and
    sin(theta)."""
    dot = float(np.dot(q0, q1))
    q0, q1 = q0.tolist(), q1.tolist()
    if dot < 0.0:
        q1 = [-x for x in q1]
        dot = -dot
    theta = math.acos(min(dot, 1.0))
    return q0, q1, theta, math.sin(theta)


def _slerp(q0: list, q1: list, theta: float, sin_theta: float, u: float) -> tuple:
    """The unit quaternion a fraction u along the arc ``_arc`` gives."""
    if theta < 1e-9:
        a, b = 1.0 - u, u
    else:
        a, b = math.sin((1.0 - u) * theta) / sin_theta, math.sin(u * theta) / sin_theta
    return unit_quaternion(*(a * x + b * y for x, y in zip(q0, q1)))
