"""Damped least-squares differential inverse kinematics.

Damping is deliberate: the metrics downstream probe near-singular regions
where a plain pseudo-inverse step explodes.  Each iterate DLS tries gets
one kinematic pass (``link_frames_axes``), from which its tool pose and,
once the iterate is accepted, its Jacobian are read.  Tracking a
trajectory seeds each waypoint with the previous solution, its pass and
its tool pose, which keeps the joint path on one IK branch and builds no
pass twice.  The tracker returns one row of joint positions and one
reachability flag per waypoint, ``JointTrajectory(positions, reachable)``;
the scorer derives the joint rates from the positions on the trajectory's
times (``metrics``).  Each target is read off the trajectory's arrays as
seven floats (quaternion, then translation), the form
``forward_kinematics`` gives the tool pose in, so tracking builds no pose
object.

A solve that cannot meet the tolerances (target out of reach, or blocked
by a joint limit) stops once its pose-error norm has fallen by less than
``STALL_GAIN`` (1%) over the last ``STALL_WINDOW`` (5) iterations, and
counts as not converged, like one capped at ``MAX_ITERATIONS``.  Near a
solution DLS cuts the error by orders of magnitude per iteration, so the
rule does not cut a converging solve short.

The tracker runs one fixed protocol.  Its constants: damping ``DAMPING``
(1e-3), at most ``MAX_ITERATIONS`` (200) iterations per waypoint, position
and orientation tolerances ``POSITION_TOLERANCE`` (1e-6 m) and
``ORIENTATION_TOLERANCE`` (1e-6 rad), and a joint-space step of at most
``MAX_STEP`` (0.5) per iteration.  Only the seed of the first waypoint is
an input; it defaults to ``default_seed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainModel, KinematicState, forward_kinematics, geometric_jacobian, link_frames_axes
from .geometry import quaternion_product, unit_quaternion
from .task import TaskTrajectory

DAMPING = 1e-3
MAX_ITERATIONS = 200  # hard cap per waypoint
POSITION_TOLERANCE = 1e-6  # m
ORIENTATION_TOLERANCE = 1e-6  # rad
MAX_STEP = 0.5  # per-iteration joint-space step cap
STALL_WINDOW = 5  # iterations
STALL_GAIN = 0.01  # least relative fall of the error norm over the window
_DAMPING_EYE = DAMPING**2 * np.eye(6)


class GraspInfeasible(Exception):
    """The first trajectory waypoint could not be reached at all."""


def default_seed(model: ChainModel) -> np.ndarray:
    """Mid-range of the joint limits; zero where limits are infinite."""
    finite = np.isfinite(model.lower) & np.isfinite(model.upper)
    # infinite limits are zeroed before the sum, which would be inf - inf
    return 0.5 * (np.where(finite, model.lower, 0.0) + np.where(finite, model.upper, 0.0))


def pose_error(target, current) -> np.ndarray:
    """6-vector (position error; orientation error as a rotation vector),
    world frame, consistent with the world-frame Jacobian, of ``current``
    against ``target``, two poses of seven floats each: the quaternion
    (w, x, y, z), then the translation.  It runs on floats, with no
    ``Rotation`` built, as DLS calls it at every iterate it tries."""
    w1, x1, y1, z1, t0, t1, t2 = target
    w2, x2, y2, z2, c0, c1, c2 = current
    # target * current^-1, each quaternion renormalised as ``Rotation``
    # renormalises, so the error equals the object form's bit for bit
    conjugate = unit_quaternion(w2, -x2, -y2, -z2)
    w, x, y, z = unit_quaternion(*quaternion_product((w1, x1, y1, z1), conjugate))
    # its log: 2 atan2(|v|, w) / |v| times v, or 2 v at a small angle
    v = np.array([x, y, z])
    sin_half = _norm(v)
    k = 2.0 if sin_half < 1e-9 else 2.0 * math.atan2(sin_half, w) / sin_half
    return np.array([t0 - c0, t1 - c1, t2 - c2, k * x, k * y, k * z])


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm`` of a 1-D vector, the same dot product and square
    root without its dispatch."""
    return math.sqrt(v.dot(v))


def _converged(err: np.ndarray) -> bool:
    return _norm(err[:3]) <= POSITION_TOLERANCE and _norm(err[3:]) <= ORIENTATION_TOLERANCE


def _solve(model, target, q, kin, current) -> tuple[np.ndarray, KinematicState, tuple, bool, int]:
    """DLS towards ``target``'s seven floats (``pose_error``) from ``q``, a
    float array within the joint limits, with its pass ``kin`` and tool
    pose ``current``: the last iterate, its pass and tool pose, whether it
    meets the tolerances, and the number of iterations (Jacobians) run."""
    lo, hi = model.lower, model.upper
    err = pose_error(target, current)
    err_norms = [_norm(err)]
    for it in range(MAX_ITERATIONS):
        if _converged(err):
            return q, kin, current, True, it
        jac = geometric_jacobian(kin)
        dq = jac.T @ np.linalg.solve(jac @ jac.T + _DAMPING_EYE, err)
        norm = _norm(dq)
        if norm > MAX_STEP:
            dq *= MAX_STEP / norm
        # backtrack when a full step would grow the error (keeps the
        # iteration from limit-cycling around tight postures)
        for _ in range(5):
            q_new = q + dq
            np.maximum(q_new, lo, out=q_new)
            np.minimum(q_new, hi, out=q_new)
            kin_new = link_frames_axes(model, q_new)
            pose_new = forward_kinematics(kin_new)
            err_new = pose_error(target, pose_new)
            norm_new = _norm(err_new)
            if norm_new <= err_norms[-1] or _norm(dq) < 1e-12:
                break
            dq = 0.5 * dq
        q, kin, current, err = q_new, kin_new, pose_new, err_new
        err_norms.append(norm_new)
        if (
            len(err_norms) > STALL_WINDOW
            and err_norms[-1] > (1.0 - STALL_GAIN) * err_norms[-1 - STALL_WINDOW]
        ):
            break
    return q, kin, current, _converged(err), it + 1


@dataclass(frozen=True, eq=False)
class JointTrajectory:
    """Solved joint path, one row of joint positions per waypoint of the
    tracked trajectory, with a per-waypoint reachability flag."""

    positions: np.ndarray
    reachable: np.ndarray


def track_trajectory(model: ChainModel, trajectory: TaskTrajectory, seed=None) -> JointTrajectory:
    """Track a gripper trajectory waypoint by waypoint.

    The first waypoint starts from ``seed`` (``default_seed`` when None),
    clamped to the joint limits; each later one is seeded with the previous
    solution, its pass and its tool pose.
    An unreachable waypoint after the first is flagged (its best-effort
    iterate is kept so the trajectory stays usable); an unreachable first
    waypoint makes the whole grasp infeasible.
    """
    seed = default_seed(model) if seed is None else np.asarray(seed, dtype=float).reshape(-1)
    if seed.shape[0] != model.n:
        raise ValueError(f"IK seed has length {seed.shape[0]}, expected {model.n}")
    if not np.isfinite(seed).all():
        raise ValueError(f"IK seed {seed.tolist()} is not finite")

    targets = np.hstack([trajectory.quaternions, trajectory.translations]).tolist()
    n_wp = len(targets)
    positions = np.zeros((n_wp, model.n))
    reachable = np.ones(n_wp, dtype=bool)
    q = np.minimum(np.maximum(seed, model.lower), model.upper)
    kin = link_frames_axes(model, q)
    q, kin, current, ok, _ = _solve(model, targets[0], q, kin, forward_kinematics(kin))
    if not ok:
        raise GraspInfeasible("first trajectory waypoint is unreachable")
    positions[0] = q
    for i in range(1, n_wp):
        q, kin, current, ok, _ = _solve(model, targets[i], q, kin, current)
        positions[i] = q
        reachable[i] = ok
    return JointTrajectory(positions, reachable)
