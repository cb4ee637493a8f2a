"""The three path objectives evaluated along a tracked trajectory.

A task's grasps share one resampled trajectory, with its pose arrays, and
one quadrature grid (``evaluate_task``).  Per grasp, the pipeline is:
compose the gripper trajectory on those arrays, track it in joint space,
then run one batched kinematic pass over the whole joint path, build the
object-carrying model's link inertias on it once (``link_inertias``; the
two dynamics objectives read that pass and those inertias, not a model),
and compute every waypoint's value at once:

* directional velocity manipulability a^2 along the motion direction
  (maximize its path integral),
* squared joint-torque norm with the object merged into the last link
  (minimize),
* effective mass perceived in a collision along the motion direction
  (minimize).

Each kernel (``tov``, ``torque_effort``, ``tem``) returns its samples and
the flag it sets; ``evaluate_grasp`` integrates each once, trapezoidally
over the task's grid (normalized arc length by default), so tov and tem
depend on geometry only, while tme also feels the timing through the joint
accelerations.  Near-singular waypoints are capped and flagged rather than
turned into NaNs so whole-trajectory integrals stay finite and comparable.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .chain import ChainModel, KinematicState, link_frames_axes
from .dynamics import (
    GRAVITY_DEFAULT,
    attach_object,
    inverse_dynamics,
    link_inertias,
    operational_mass_inverse,
)
from .ik import GraspInfeasible, JointTrajectory, track_trajectory
from .task import (
    GraspCandidate,
    RigidObject,
    TaskSpec,
    TaskTrajectory,
    gripper_trajectory,
    path_parameter,
    resample,
)

EFFECTIVE_MASS_CAP = 1e9  # kg
NEAR_SINGULAR_THRESHOLD = 1e-9  # 1/kg, on the directional inverse inertia
_RANK_EPS = 1e-12  # eigenvalues of J J^T below this count as zero
_NULL_LEAK_TOL = 1e-2  # squared direction mass allowed in null directions


class ZeroMotionError(ValueError):
    """The trajectory never moves, so path-direction metrics are undefined."""


# The objectives in output order, each with its sense: a scorecard's
# ``h_<name>`` times the sense is minimized.  Manipulability (tov) is
# maximized; torque effort (tme) and effective mass (tem) are minimized.
OBJECTIVES = {"tov": -1.0, "tme": 1.0, "tem": 1.0}
# The per-waypoint flags of a scored grasp, in output order, by the stage that sets each.
FLAGS = (
    "near_singular",  # tem: the direction's inverse inertia is below the threshold; m_e is capped
    "unachievable",  # tov: the motion direction leaves the arm's velocity range; a^2 is 0
    "unreachable",  # IK: the waypoint was not reached (``JointTrajectory.reachable``)
)


@dataclass(eq=False)
class GraspScorecard:
    """One grasp's path integrals ``h_<name>`` and, once scored, the task's
    shared grid ``s`` with the per-waypoint samples (``profiles``, keyed by
    ``OBJECTIVES``) and flags (``flags``, keyed by ``FLAGS``) on it.  A card
    read back from ``scorecards.csv`` has no per-waypoint data; it holds
    the file's flagged-waypoint counts (``flag_counts``, keyed by
    ``FLAGS``) instead, when the file has them."""

    grasp_id: str
    feasible: bool
    h_tov: float | None = None
    h_tme: float | None = None
    h_tem: float | None = None
    s: np.ndarray | None = None
    profiles: dict[str, np.ndarray] | None = None
    flags: dict[str, np.ndarray] | None = None
    flag_counts: dict[str, int] | None = None

    def counts(self) -> dict[str, int] | None:
        """Flagged waypoints per flag, in ``FLAGS`` order; None when the
        card holds neither flags nor counts."""
        if self.flags is None:
            return self.flag_counts
        return {name: int(np.count_nonzero(self.flags[name])) for name in FLAGS}


def _check_unit(directions) -> np.ndarray:
    u = np.asarray(directions, dtype=float)
    if np.any(np.abs(np.linalg.norm(u, axis=-1) - 1.0) > 1e-9):
        raise ValueError("direction must be a unit 6-vector")
    return u


def directional_manipulability(jacobian, direction) -> tuple[np.ndarray, np.ndarray]:
    """Squared radius of the velocity manipulability ellipsoid along unit
    6-directions, a^2 = 1 / (u^T (J J^T)^-1 u), and the unachievable-direction
    flag, per row of (..., 6, n) Jacobians and (..., 6) directions.

    At a rank-deficient J J^T (always the case for arms with fewer than six
    joints), eigenvalues below 1e-12 are treated as exact zeros and the
    radius is taken inside the achievable subspace.  A direction with
    significant mass in the null directions is unachievable and yields
    a^2 = 0 with the flag set; tiny null leakage, as produced by finite
    pose differencing, is projected out instead of collapsing the metric.
    """
    u = _check_unit(direction)
    jac = np.asarray(jacobian, dtype=float)
    lead = u.shape[:-1]
    u = u.reshape(-1, 6)
    gram = (jac @ jac.swapaxes(-1, -2)).reshape(-1, 6, 6)
    full = np.linalg.eigvalsh(gram)[:, 0] >= _RANK_EPS
    a2 = np.zeros(u.shape[0])
    unachievable = np.zeros(u.shape[0], dtype=bool)
    w = np.linalg.solve(gram[full], u[full, :, None])[..., 0]
    a2[full] = 1.0 / np.einsum("ij,ij->i", u[full], w)
    for i in np.flatnonzero(~full):
        a2[i], unachievable[i] = _rank_deficient_manipulability(gram[i], u[i])
    return a2.reshape(lead), unachievable.reshape(lead)


def _rank_deficient_manipulability(gram: np.ndarray, u: np.ndarray) -> tuple[float, bool]:
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


def _segment_deltas(translations: np.ndarray, quats: np.ndarray) -> np.ndarray:
    """6-vector pose increments (translation; rotation log) per segment,
    from (m, 3) translations and (m, 4) unit quaternions (w, x, y, z): the
    array form of ``(b.rotation * a.rotation.inverse()).log()``."""
    w0, v0 = quats[:-1, 0], quats[:-1, 1:]
    w1, v1 = quats[1:, 0], quats[1:, 1:]
    # q1 q0^-1, with the sign that makes w >= 0 so angles lie in [0, pi]
    w = w1 * w0 + np.einsum("ij,ij->i", v1, v0)
    v = w0[:, None] * v1 - w1[:, None] * v0 + np.cross(v0, v1)
    sign = np.where(w < 0.0, -1.0, 1.0)
    w, v = w * sign, v * sign[:, None]
    s = np.linalg.norm(v, axis=1)
    small = s < 1e-9  # 2 atan2(s, w) / s -> 2 / w with w ~ 1
    scale = np.where(small, 2.0, 2.0 * np.arctan2(s, w) / np.where(small, 1.0, s))
    return np.hstack([np.diff(translations, axis=0), scale[:, None] * v])


def _fill_tangents(raw: np.ndarray) -> np.ndarray:
    """Unit tangents at each waypoint from segment increments: waypoint i
    uses segment i->i+1, the last reuses the final segment, and zero-motion
    waypoints reuse the nearest preceding tangent (the first moving one for
    a leading run of zero-motion waypoints)."""
    norms = np.linalg.norm(raw, axis=1)
    moving = norms >= 1e-12
    if not moving.any():
        raise ZeroMotionError("trajectory has no motion; path direction undefined")
    latest = np.maximum.accumulate(np.where(moving, np.arange(raw.shape[0]), -1))
    source = np.append(np.where(latest < 0, np.argmax(moving), latest), latest[-1])
    return raw[source] / norms[source, None]


def _translation_tangents(translations: np.ndarray) -> np.ndarray:
    """Unit translation directions of (m, 3) waypoints, padded with a zero
    angular part."""
    tangents3 = _fill_tangents(np.diff(translations, axis=0))
    return np.hstack([tangents3, np.zeros_like(tangents3)])


def tov(kins: KinematicState, gripper: TaskTrajectory) -> tuple[np.ndarray, np.ndarray]:
    """Task-oriented velocity manipulability per waypoint: a^2 along the 6D
    motion direction between consecutive gripper poses, and the
    unachievable-direction flag.  ``kins`` is the kinematic pass over the
    joint path (``link_frames_axes`` at the tracked joint positions)."""
    tangents = _fill_tangents(_segment_deltas(gripper.translations, gripper.quaternions))
    return directional_manipulability(kins.jacobian, tangents)


def torque_effort(
    kins: KinematicState, inertias: np.ndarray, joint_traj: JointTrajectory, gravity=GRAVITY_DEFAULT
) -> np.ndarray:
    """Squared joint-torque norm per waypoint.  ``kins`` is the kinematic
    pass over the joint path and ``inertias`` its link inertias
    (``link_inertias``); the grasped object counts once they are built on
    the model that carries it (``attach_object``)."""
    tau = inverse_dynamics(kins, inertias, joint_traj.velocities, joint_traj.accelerations, gravity)
    return np.einsum("ij,ij->i", tau, tau)


def directional_effective_mass(lambda_inv, direction) -> tuple[np.ndarray, np.ndarray]:
    """Effective mass 1 / (u^T Lambda^-1 u) along unit directions from
    operational-space inverse inertias, per row of (..., 6, 6) and (..., 6)
    arrays, with the near-singular cap-and-flag policy: where the quadratic
    form falls below ``NEAR_SINGULAR_THRESHOLD`` the value is
    ``EFFECTIVE_MASS_CAP`` and the flag is set."""
    u = _check_unit(direction)
    quad = np.einsum("...i,...i->...", (u[..., None, :] @ lambda_inv)[..., 0, :], u)
    near_singular = quad < NEAR_SINGULAR_THRESHOLD
    values = np.where(near_singular, EFFECTIVE_MASS_CAP, 1.0 / np.where(near_singular, 1.0, quad))
    return values, near_singular


def tem(kins: KinematicState, inertias: np.ndarray, gripper: TaskTrajectory) -> tuple[np.ndarray, np.ndarray]:
    """Effective mass per waypoint along the motion direction, and the
    near-singular flag (``directional_effective_mass``).

    Collisions are modeled as point impacts on the translating end
    effector, so the direction is the unit translation tangent of the
    gripper path with zero angular part.  ``kins`` and ``inertias`` are as
    for ``torque_effort``.
    """
    return directional_effective_mass(
        operational_mass_inverse(kins, inertias), _translation_tangents(gripper.translations)
    )


def evaluate_grasp(
    model: ChainModel,
    task: TaskTrajectory,
    grasp: GraspCandidate,
    obj: RigidObject,
    s: np.ndarray,
    ik_seed=None,
    gravity=GRAVITY_DEFAULT,
) -> GraspScorecard:
    """Run the full per-grasp pipeline and collect the three objectives.

    A grasp whose first waypoint is unreachable yields an infeasible
    scorecard (no scalars); unreachable waypoints later in the path are
    flagged but the grasp still scores.  ``s`` is the quadrature grid, one
    value per waypoint (``path_parameter`` of the task); ``ik_seed`` is the
    joint configuration IK starts from (see ``track_trajectory``).
    """
    gripper = gripper_trajectory(task, grasp)
    try:
        joint_traj = track_trajectory(model, gripper, ik_seed)
    except GraspInfeasible:
        return GraspScorecard(grasp_id=grasp.id, feasible=False)
    # one batched kinematic pass over the joint path serves all three
    # objectives; the object-carrying model shares it, as only its last
    # link's inertia differs, and its link inertias on that pass serve
    # both RNEA and CRBA
    kins = link_frames_axes(model, joint_traj.positions)
    inertias = link_inertias(attach_object(model, grasp, obj), kins)
    a2, unachievable = tov(kins, gripper)
    tau2 = torque_effort(kins, inertias, joint_traj, gravity)
    m_e, near_singular = tem(kins, inertias, gripper)
    profiles = dict(zip(OBJECTIVES, (a2, tau2, m_e)))
    return GraspScorecard(
        grasp_id=grasp.id,
        feasible=True,
        **{f"h_{name}": float(np.trapezoid(values, s)) for name, values in profiles.items()},
        s=s,
        profiles=profiles,
        flags=dict(zip(FLAGS, (near_singular, unachievable, ~joint_traj.reachable))),
    )


def check_ik_seed(model: ChainModel, spec: TaskSpec) -> None:
    """Raise ValueError unless the task's IK seed, if any, has one value per joint."""
    seed = spec.ik_seed
    if seed is not None and seed.shape[0] != model.n:
        raise ValueError(f"task {spec.name!r}: ik_seed has length {seed.shape[0]}, robot has {model.n} joints")


def evaluate_task(
    model: ChainModel,
    spec: TaskSpec,
    grasps=None,
    resample_count: int | None = None,
    index_quadrature: bool = False,
    jobs: int = 1,
) -> list[GraspScorecard]:
    """Scorecards of ``grasps`` (the task's own when None), in order, on
    the keyframes resampled to ``resample_count`` waypoints (the file's
    count when None).  One grid, arc length or the uniform waypoint index
    (``index_quadrature``), serves every grasp; ``jobs > 1`` runs them on
    a thread pool without changing a scorecard."""
    check_ik_seed(model, spec)
    task = resample(spec.trajectory, spec.resample_count if resample_count is None else resample_count)
    s = np.linspace(0.0, 1.0, len(task)) if index_quadrature else path_parameter(task)
    s.flags.writeable = False  # shared by every grasp's scorecard

    def run_one(grasp: GraspCandidate) -> GraspScorecard:
        return evaluate_grasp(model, task, grasp, spec.obj, s, ik_seed=spec.ik_seed, gravity=spec.gravity)

    grasps = spec.grasps if grasps is None else grasps
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(run_one, grasps))
    return [run_one(g) for g in grasps]
