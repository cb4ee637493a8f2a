"""The three path objectives evaluated along a tracked trajectory.

Per grasp, the pipeline is: compose the gripper trajectory, track it in
joint space, then walk the waypoints, one kinematic pass each, computing

* directional velocity manipulability a^2 along the motion direction
  (maximize its path integral),
* squared joint-torque norm with the object merged into the last link
  (minimize),
* effective mass perceived in a collision along the motion direction
  (minimize).

Integrals are trapezoidal over the normalized arc length of the object
path, so the first and third objectives depend on geometry only, while the
torque objective also feels the timing through the joint accelerations.
Near-singular waypoints are capped and flagged rather than turned into
NaNs so whole-trajectory integrals stay finite and comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainModel, KinematicState, link_frames_axes
from .dynamics import (
    GRAVITY_DEFAULT,
    attach_object,
    inverse_dynamics,
    operational_mass_inverse,
)
from .geometry import Pose
from .ik import GraspInfeasible, IkSettings, JointTrajectory, track_trajectory
from .task import GraspCandidate, RigidObject, TaskTrajectory, gripper_trajectory, path_parameter

EFFECTIVE_MASS_CAP = 1e9  # kg
NEAR_SINGULAR_THRESHOLD = 1e-9  # 1/kg, on the directional inverse inertia
_RANK_EPS = 1e-12  # eigenvalues of J J^T below this count as zero
_NULL_LEAK_TOL = 1e-2  # squared direction mass allowed in null directions


class ZeroMotionError(ValueError):
    """The trajectory never moves, so path-direction metrics are undefined."""


@dataclass(frozen=True, eq=False)
class MetricProfile:
    """Per-waypoint metric samples plus their path integral over s."""

    values: np.ndarray
    s: np.ndarray
    integral: float
    near_singular: np.ndarray
    unreachable: np.ndarray

    @classmethod
    def from_samples(cls, values, s, near_singular=None, unreachable=None) -> "MetricProfile":
        values = np.asarray(values, dtype=float)
        s = np.asarray(s, dtype=float)
        n = values.shape[0]
        if near_singular is None:
            near_singular = np.zeros(n, dtype=bool)
        if unreachable is None:
            unreachable = np.zeros(n, dtype=bool)
        integral = float(np.trapezoid(values, s))
        return cls(values, s, integral, np.asarray(near_singular), np.asarray(unreachable))


@dataclass(eq=False)
class GraspScorecard:
    """Scalar objectives and per-waypoint profiles for one grasp."""

    grasp_id: str
    feasible: bool
    h_tov: float | None = None
    h_tme: float | None = None
    h_tem: float | None = None
    tov_profile: MetricProfile | None = None
    tme_profile: MetricProfile | None = None
    tem_profile: MetricProfile | None = None


def directional_manipulability(jacobian: np.ndarray, direction) -> float:
    """Squared radius of the velocity manipulability ellipsoid along a unit
    6-direction: a^2 = 1 / (u^T (J J^T)^-1 u).

    At a rank-deficient J J^T (always the case for arms with fewer than six
    joints), eigenvalues below 1e-12 are treated as exact zeros and the
    radius is taken inside the achievable subspace.  A direction with
    significant mass in the null directions is unachievable and yields
    a^2 = 0; tiny null leakage, as produced by finite pose differencing, is
    projected out instead of collapsing the metric.
    """
    a2, _ = _directional_manipulability(jacobian, direction)
    return a2


def _check_unit(direction) -> np.ndarray:
    u = np.asarray(direction, dtype=float).reshape(6)
    if abs(np.linalg.norm(u) - 1.0) > 1e-9:
        raise ValueError("direction must be a unit 6-vector")
    return u


def _directional_manipulability(jacobian: np.ndarray, direction) -> tuple[float, bool]:
    """Returns (a^2, unachievable-direction flag)."""
    u = _check_unit(direction)
    gram = jacobian @ jacobian.T
    eigs = np.linalg.eigvalsh(gram)
    if eigs[0] >= _RANK_EPS:
        denom = float(u @ np.linalg.solve(gram, u))
        return 1.0 / denom, False
    eigs, vecs = np.linalg.eigh(gram)
    coords = vecs.T @ u
    null = eigs < _RANK_EPS
    null_mass = float(np.sum(coords[null] ** 2))
    if null_mass > _NULL_LEAK_TOL:
        return 0.0, True
    live = coords[~null] ** 2 / (1.0 - null_mass)  # renormalized projection
    denom = float(np.sum(live / eigs[~null]))
    if denom <= 0.0:
        return 0.0, True
    return 1.0 / denom, False


def _segment_deltas(poses: list[Pose]) -> np.ndarray:
    """6-vector pose increments (translation; rotation-log) per segment."""
    out = np.zeros((len(poses) - 1, 6))
    for i in range(len(poses) - 1):
        a, b = poses[i], poses[i + 1]
        out[i, :3] = b.translation - a.translation
        out[i, 3:] = (b.rotation * a.rotation.inverse()).log()
    return out


def _fill_tangents(raw: np.ndarray) -> np.ndarray:
    """Unit tangents at each waypoint from segment increments: waypoint i
    uses segment i->i+1, the last reuses the final segment, and zero-motion
    waypoints reuse the nearest neighboring tangent."""
    n_seg = raw.shape[0]
    norms = np.linalg.norm(raw, axis=1)
    if np.all(norms < 1e-12):
        raise ZeroMotionError("trajectory has no motion; path direction undefined")
    tangents = np.zeros((n_seg + 1, raw.shape[1]))
    valid = np.zeros(n_seg + 1, dtype=bool)
    for i in range(n_seg):
        if norms[i] >= 1e-12:
            tangents[i] = raw[i] / norms[i]
            valid[i] = True
    # forward fill, then backward fill for a leading run of zeros
    for i in range(1, n_seg + 1):
        if not valid[i]:
            tangents[i] = tangents[i - 1]
            valid[i] = valid[i - 1]
    for i in range(n_seg - 1, -1, -1):
        if not valid[i]:
            tangents[i] = tangents[i + 1]
            valid[i] = True
    return tangents


def _twist_tangents(poses: list[Pose]) -> np.ndarray:
    """Full 6D unit motion directions between consecutive gripper poses."""
    return _fill_tangents(_segment_deltas(poses))


def _translation_tangents(poses: list[Pose]) -> np.ndarray:
    """Unit translation directions padded with a zero angular part."""
    tangents3 = _fill_tangents(np.diff([p.translation for p in poses], axis=0))
    out = np.zeros((tangents3.shape[0], 6))
    out[:, :3] = tangents3
    return out


def tov(
    kins: list[KinematicState],
    joint_traj: JointTrajectory,
    gripper_poses: list[Pose],
    s: np.ndarray,
) -> MetricProfile:
    """Task-oriented velocity manipulability profile: a^2 along the 6D
    motion direction at every waypoint, integrated over s.  ``kins`` holds
    the kinematic pass at each waypoint."""
    tangents = _twist_tangents(gripper_poses)
    n = len(gripper_poses)
    values = np.zeros(n)
    near_singular = np.zeros(n, dtype=bool)
    for i in range(n):
        values[i], near_singular[i] = _directional_manipulability(kins[i].jacobian, tangents[i])
    return MetricProfile.from_samples(values, s, near_singular, ~joint_traj.reachable)


def torque_effort(
    model: ChainModel,
    kins: list[KinematicState],
    joint_traj: JointTrajectory,
    s: np.ndarray,
    gravity=GRAVITY_DEFAULT,
) -> MetricProfile:
    """Squared joint-torque norm per waypoint, integrated over s.  The
    grasped object counts once ``model`` carries it (``attach_object``)."""
    n = len(joint_traj)
    values = np.zeros(n)
    for i in range(n):
        tau = inverse_dynamics(
            model,
            kins[i],
            joint_traj.velocities[i],
            joint_traj.accelerations[i],
            gravity=gravity,
        )
        values[i] = float(tau @ tau)
    return MetricProfile.from_samples(values, s, unreachable=~joint_traj.reachable)


def directional_effective_mass(lambda_inv: np.ndarray, direction) -> tuple[float, bool]:
    """Effective mass along a unit direction from the operational-space
    inverse inertia, with the near-singular cap-and-flag policy."""
    u = _check_unit(direction)
    quad = float(u @ lambda_inv @ u)
    if quad < NEAR_SINGULAR_THRESHOLD:
        return EFFECTIVE_MASS_CAP, True
    return 1.0 / quad, False


def tem(
    model: ChainModel,
    kins: list[KinematicState],
    joint_traj: JointTrajectory,
    gripper_poses: list[Pose],
    s: np.ndarray,
) -> MetricProfile:
    """Effective-mass profile along the motion direction, integrated over s.

    Collisions are modeled as point impacts on the translating end
    effector, so the direction is the unit translation tangent with zero
    angular part.  The grasped object counts once ``model`` carries it
    (``attach_object``).
    """
    tangents = _translation_tangents(gripper_poses)
    n = len(gripper_poses)
    values = np.zeros(n)
    near_singular = np.zeros(n, dtype=bool)
    for i in range(n):
        values[i], near_singular[i] = directional_effective_mass(
            operational_mass_inverse(model, kins[i]), tangents[i]
        )
    return MetricProfile.from_samples(values, s, near_singular, ~joint_traj.reachable)


def evaluate_grasp(
    model: ChainModel,
    task: TaskTrajectory,
    grasp: GraspCandidate,
    obj: RigidObject,
    ik_settings: IkSettings | None = None,
    gravity=GRAVITY_DEFAULT,
    index_quadrature: bool = False,
) -> GraspScorecard:
    """Run the full per-grasp pipeline and collect the three objectives.

    A grasp whose first waypoint is unreachable yields an infeasible
    scorecard (no scalars); unreachable waypoints later in the path are
    flagged in the profiles but the grasp still scores.
    ``index_quadrature=True`` integrates over a uniform waypoint-index grid
    instead of arc length.
    """
    settings = ik_settings if ik_settings is not None else IkSettings()
    poses = gripper_trajectory(task, grasp)
    if index_quadrature:
        s = np.linspace(0.0, 1.0, len(task))
    else:
        s = path_parameter(task)
    try:
        joint_traj = track_trajectory(model, poses, task.times, settings)
    except GraspInfeasible:
        return GraspScorecard(grasp_id=grasp.id, feasible=False)
    # one kinematic pass per waypoint serves all three objectives; the
    # object-carrying model shares it, as only its last link's inertia differs
    kins = [link_frames_axes(model, q) for q in joint_traj.positions]
    loaded = attach_object(model, grasp, obj)
    tov_profile = tov(kins, joint_traj, poses, s)
    tme_profile = torque_effort(loaded, kins, joint_traj, s, gravity=gravity)
    tem_profile = tem(loaded, kins, joint_traj, poses, s)
    return GraspScorecard(
        grasp_id=grasp.id,
        feasible=True,
        h_tov=tov_profile.integral,
        h_tme=tme_profile.integral,
        h_tem=tem_profile.integral,
        tov_profile=tov_profile,
        tme_profile=tme_profile,
        tem_profile=tem_profile,
    )
