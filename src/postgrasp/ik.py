"""Damped least-squares differential inverse kinematics.

Damping is deliberate: the metrics downstream probe near-singular regions
where a plain pseudo-inverse step explodes.  Tracking a trajectory seeds
each waypoint with the previous solution, which keeps the joint path on
one IK branch; joint velocities and accelerations are finite differences
of the solved positions, so the energy metric reflects what the joint
path actually does.

Each iteration asks ``forward_kinematics`` and ``geometric_jacobian`` for
the same iterate, and each waypoint starts at the previous waypoint's last
iterate; both functions read the chain's memo of the last kinematic pass,
so every distinct iterate is one pass.

A solve that cannot meet the tolerances (target out of reach, or blocked
by a joint limit) stops once its pose-error norm has fallen by less than
``STALL_GAIN`` (1%) over the last ``STALL_WINDOW`` (5) iterations;
``MAX_ITERATIONS`` stays the hard cap.  A stalled solve counts as not
converged, exactly like a capped one.  Near a solution DLS cuts the
error by orders of magnitude per iteration, so a solve that converges
within a few iterations runs exactly the iterates it ran without the rule.

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

from .chain import ChainModel, forward_kinematics, geometric_jacobian
from .geometry import Pose
from .task import TaskTrajectory

DAMPING = 1e-3
MAX_ITERATIONS = 200  # hard cap per waypoint
POSITION_TOLERANCE = 1e-6  # m
ORIENTATION_TOLERANCE = 1e-6  # rad
MAX_STEP = 0.5  # per-iteration joint-space step cap
STALL_WINDOW = 5  # iterations
STALL_GAIN = 0.01  # least relative fall of the error norm over the window


class GraspInfeasible(Exception):
    """The first trajectory waypoint could not be reached at all."""


def default_seed(model: ChainModel) -> np.ndarray:
    """Mid-range of the joint limits; zero where limits are infinite."""
    seed = np.zeros(model.n)
    for i, joint in enumerate(model.joints):
        lo, hi = joint.limits
        if math.isfinite(lo) and math.isfinite(hi):
            seed[i] = 0.5 * (lo + hi)
    return seed


def pose_error(target: Pose, current: Pose) -> np.ndarray:
    """6-vector (position error; orientation error as a rotation vector),
    world frame, consistent with the world-frame Jacobian."""
    dp = target.translation - current.translation
    drot = (target.rotation * current.rotation.inverse()).log()
    return np.concatenate([dp, drot])


def _converged(err: np.ndarray) -> bool:
    return (
        np.linalg.norm(err[:3]) <= POSITION_TOLERANCE
        and np.linalg.norm(err[3:]) <= ORIENTATION_TOLERANCE
    )


def _solve(model, target, seed) -> tuple[np.ndarray, bool, int]:
    """DLS from ``seed``: the last iterate, whether it meets the
    tolerances, and the number of iterations (Jacobians) run."""
    lo, hi = model.limits_arrays()
    q = np.clip(np.asarray(seed, dtype=float).reshape(model.n), lo, hi)
    lam2 = DAMPING**2
    err = pose_error(target, forward_kinematics(model, q))
    err_norms = [np.linalg.norm(err)]
    for it in range(MAX_ITERATIONS):
        if _converged(err):
            return q, True, it
        jac = geometric_jacobian(model, q)
        a = jac @ jac.T + lam2 * np.eye(6)
        dq = jac.T @ np.linalg.solve(a, err)
        norm = np.linalg.norm(dq)
        if norm > MAX_STEP:
            dq *= MAX_STEP / norm
        # backtrack when a full step would grow the error (keeps the
        # iteration from limit-cycling around tight postures)
        for _ in range(5):
            q_new = np.clip(q + dq, lo, hi)
            err_new = pose_error(target, forward_kinematics(model, q_new))
            norm_new = np.linalg.norm(err_new)
            if norm_new <= err_norms[-1] or np.linalg.norm(dq) < 1e-12:
                break
            dq = 0.5 * dq
        q, err = q_new, err_new
        err_norms.append(norm_new)
        if (
            len(err_norms) > STALL_WINDOW
            and err_norms[-1] > (1.0 - STALL_GAIN) * err_norms[-1 - STALL_WINDOW]
        ):
            break
    return q, _converged(err), it + 1


@dataclass(frozen=True, eq=False)
class JointTrajectory:
    """Solved joint path with finite-difference velocities/accelerations
    and a per-waypoint reachability flag."""

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    accelerations: np.ndarray
    reachable: np.ndarray

    def __len__(self) -> int:
        return self.times.shape[0]


def _fd_derivatives(times: np.ndarray, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic-fit finite differences on a (possibly non-uniform) grid,
    one-sided at the endpoints."""
    n = pos.shape[0]
    vel = np.zeros_like(pos)
    acc = np.zeros_like(pos)
    if n == 2:
        v = (pos[1] - pos[0]) / (times[1] - times[0])
        vel[0] = vel[1] = v
        return vel, acc
    for i in range(n):
        k = min(max(i - 1, 0), n - 3)
        t0, t1, t2 = times[k], times[k + 1], times[k + 2]
        y0, y1, y2 = pos[k], pos[k + 1], pos[k + 2]
        t = times[i]
        d0 = (2 * t - t1 - t2) / ((t0 - t1) * (t0 - t2))
        d1 = (2 * t - t0 - t2) / ((t1 - t0) * (t1 - t2))
        d2 = (2 * t - t0 - t1) / ((t2 - t0) * (t2 - t1))
        vel[i] = d0 * y0 + d1 * y1 + d2 * y2
        acc[i] = 2.0 * (
            y0 / ((t0 - t1) * (t0 - t2))
            + y1 / ((t1 - t0) * (t1 - t2))
            + y2 / ((t2 - t0) * (t2 - t1))
        )
    return vel, acc


def track_trajectory(model: ChainModel, trajectory: TaskTrajectory, seed=None) -> JointTrajectory:
    """Track a gripper trajectory waypoint by waypoint.

    The first waypoint starts from ``seed`` (``default_seed`` when None);
    each later one is seeded with the previous solution.  An unreachable
    waypoint after the first is flagged (its best-effort iterate is kept so
    the trajectory stays usable); an unreachable first waypoint makes the
    whole grasp infeasible.
    """
    seed = default_seed(model) if seed is None else np.asarray(seed, dtype=float).reshape(-1)
    if seed.shape[0] != model.n:
        raise ValueError(f"IK seed has length {seed.shape[0]}, expected {model.n}")

    poses = trajectory.poses
    n_wp = len(poses)
    positions = np.zeros((n_wp, model.n))
    reachable = np.ones(n_wp, dtype=bool)
    q, ok, _ = _solve(model, poses[0], seed)
    if not ok:
        raise GraspInfeasible("first trajectory waypoint is unreachable")
    positions[0] = q
    for i in range(1, n_wp):
        q, ok, _ = _solve(model, poses[i], q)
        positions[i] = q
        reachable[i] = ok
    vel, acc = _fd_derivatives(trajectory.times, positions)
    return JointTrajectory(trajectory.times, positions, vel, acc, reachable)
