"""The three path objectives evaluated along a tracked trajectory.

A task's grasps share one resampled trajectory, with its pose arrays, and
one quadrature grid (``evaluate_task``).  They are taken in chunks: each
grasp of a chunk is tracked alone (its gripper trajectory composed on
those arrays, then tracked in joint space), then the chunk is scored as
one stack of rows, one per grasp and waypoint: one kinematic pass over the
stacked joint paths, the link inertias built on it once with the object
placed on the last link in each grasp's frame (``link_inertias``; the two
dynamics objectives read that pass and those inertias, not a model), the
joint rates and gripper pose increments of the stacked paths, and every
row's value of each objective in one call:

* directional velocity manipulability a^2 along the motion direction
  (maximize its path integral),
* squared joint-torque norm with the object carried by the last link
  (minimize),
* effective mass perceived in a collision along the motion direction
  (minimize).

Each kernel (``tov``, ``torque_effort``, ``tem``) takes the pass over a
(B, W, n) stack of B joint paths of W waypoints and arrays over that
stack, and returns its (B, W) samples and the flag it sets.  Joint rates
are finite differences of the tracked positions, so the energy metric
reflects what the joint path actually does.  Each grasp's objectives are
integrated once, trapezoidally over the normalized arc length of the
object path (``path_parameter``), so tov and tem depend on geometry only,
while tme also feels the timing through the joint accelerations.
A chunk holds at most 256 rows (but at least one grasp); past 256
waypoints it is one grasp, so memory grows with W, ~9 KB per waypoint
(~0.9 GB at ``fileio.MAX_COUNT``).  No value depends on how the grasps are
split into chunks, as numpy runs each slice of a stack as it runs one
matrix or vector (``tests/test_lockstep_canary.py``).  Near-singular
waypoints are capped and flagged rather than turned into NaNs so
whole-trajectory integrals stay finite and comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainModel, KinematicState, LinkSpec, link_frames_axes
from .dynamics import (
    GRAVITY_DEFAULT,
    attach_object,
    directional_inverse_inertia,
    inverse_dynamics,
    link_inertias,
)
from .ik import GraspInfeasible, track_trajectory
from .task import (
    GraspCandidate,
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
_SCORE_ROWS = 256  # grasp x waypoint rows per chunk (at least one grasp)


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
    if jac.shape[-1] < 6:  # fewer joints than task dimensions: no row has full rank
        full = np.zeros(u.shape[0], dtype=bool)
    else:
        full = np.linalg.eigvalsh(gram)[:, 0] >= _RANK_EPS
    a2 = np.zeros(u.shape[0])
    unachievable = np.zeros(u.shape[0], dtype=bool)
    w = np.linalg.solve(gram[full], u[full, :, None])[..., 0]
    a2[full] = 1.0 / np.einsum("ij,ij->i", u[full], w)
    # the rank-deficient rows: masked sums add their terms in eigenvalue order, as per-row sums do
    eigs, vecs = np.linalg.eigh(gram[~full])
    sq = ((vecs.swapaxes(-1, -2) @ u[~full, :, None])[..., 0]) ** 2
    null = eigs < _RANK_EPS
    null_mass = np.where(null, sq, 0.0).sum(axis=-1)
    leaks = null_mass > _NULL_LEAK_TOL
    live = sq / np.where(leaks, 1.0, 1.0 - null_mass)[:, None]  # renormalized projection
    denom = np.where(null, 0.0, live / np.where(null, 1.0, eigs)).sum(axis=-1)
    lost = leaks | (denom <= 0.0)
    a2[~full] = np.where(lost, 0.0, 1.0 / np.where(lost, 1.0, denom))
    unachievable[~full] = lost
    return a2.reshape(lead), unachievable.reshape(lead)


def _fd_derivatives(times: np.ndarray, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Joint rates of (..., W, n) paths on a (possibly non-uniform) grid by
    quadratic-fit finite differences, one-sided at the endpoints: waypoint
    i fits the three waypoints from k = clip(i - 1, 0, W - 3)."""
    w = pos.shape[-2]
    if w == 2:
        vel = np.zeros_like(pos)
        vel[..., 0, :] = vel[..., 1, :] = (pos[..., 1, :] - pos[..., 0, :]) / (times[1] - times[0])
        return vel, np.zeros_like(pos)
    k = np.minimum(np.maximum(np.arange(w) - 1, 0), w - 3)
    t = times[:, None]
    t0, t1, t2 = t[k], t[k + 1], t[k + 2]
    y0, y1, y2 = pos[..., k, :], pos[..., k + 1, :], pos[..., k + 2, :]
    d0 = (2 * t - t1 - t2) / ((t0 - t1) * (t0 - t2))
    d1 = (2 * t - t0 - t2) / ((t1 - t0) * (t1 - t2))
    d2 = (2 * t - t0 - t1) / ((t2 - t0) * (t2 - t1))
    vel = d0 * y0 + d1 * y1 + d2 * y2
    acc = 2.0 * (
        y0 / ((t0 - t1) * (t0 - t2))
        + y1 / ((t1 - t0) * (t1 - t2))
        + y2 / ((t2 - t0) * (t2 - t1))
    )
    return vel, acc


def _segment_deltas(translations: np.ndarray, quats: np.ndarray) -> np.ndarray:
    """6-vector pose increments per segment a -> b, from (..., m, 3)
    translations and (..., m, 4) unit quaternions (w, x, y, z): the
    translation step, then the rotation vector of b a^-1, its angle in
    [0, pi]."""
    w0, v0 = quats[..., :-1, 0], quats[..., :-1, 1:]
    w1, v1 = quats[..., 1:, 0], quats[..., 1:, 1:]
    # q1 q0^-1, with the sign that makes w >= 0 so angles lie in [0, pi]
    w = w1 * w0 + np.einsum("...j,...j->...", v1, v0)
    v = w0[..., None] * v1 - w1[..., None] * v0 + np.cross(v0, v1)
    sign = np.where(w < 0.0, -1.0, 1.0)
    w, v = w * sign, v * sign[..., None]
    s = np.linalg.norm(v, axis=-1)
    small = s < 1e-9  # 2 atan2(s, w) / s -> 2 / w with w ~ 1
    scale = np.where(small, 2.0, 2.0 * np.arctan2(s, w) / np.where(small, 1.0, s))
    return np.concatenate([np.diff(translations, axis=-2), scale[..., None] * v], axis=-1)


def _fill_tangents(raw: np.ndarray) -> np.ndarray:
    """Unit tangents at each waypoint from (..., m - 1, k) segment
    increments: waypoint i uses segment i->i+1, the last reuses the final
    segment, and zero-motion waypoints reuse the nearest preceding tangent
    (the first moving one for a leading run of zero-motion waypoints)."""
    norms = np.linalg.norm(raw, axis=-1)
    moving = norms >= 1e-12
    if not moving.any(axis=-1).all():
        raise ZeroMotionError("trajectory has no motion; path direction undefined")
    latest = np.maximum.accumulate(np.where(moving, np.arange(raw.shape[-2]), -1), axis=-1)
    first = np.argmax(moving, axis=-1)[..., None]
    source = np.concatenate([np.where(latest < 0, first, latest), latest[..., -1:]], axis=-1)
    return np.take_along_axis(raw, source[..., None], -2) / np.take_along_axis(norms, source, -1)[..., None]


def tov(kins: KinematicState, increments: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Task-oriented velocity manipulability per waypoint: a^2 along the 6D
    motion direction between consecutive gripper poses, and the
    unachievable-direction flag, both (B, W).  ``kins`` is the kinematic
    pass over a (B, W, n) stack of joint paths (``link_frames_axes`` at the
    tracked joint positions) and ``increments`` the (B, W - 1, 6) pose
    increments (``_segment_deltas``) of the gripper paths they track."""
    return directional_manipulability(kins.jacobian, _fill_tangents(increments))


def torque_effort(kins: KinematicState, inertias: np.ndarray, qdot, qddot, gravity=GRAVITY_DEFAULT) -> np.ndarray:
    """(B, W) squared joint-torque norms.  ``kins`` is the kinematic pass
    over a (B, W, n) stack of joint positions, ``qdot`` and ``qddot`` their
    rates (``_fd_derivatives``) and ``inertias`` its link inertias; the
    grasped object counts once they carry it (``link_inertias``)."""
    tau = inverse_dynamics(kins, inertias, qdot, qddot, gravity)
    return np.einsum("...j,...j->...", tau, tau)


def tem(kins: KinematicState, inertias: np.ndarray, increments: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B, W) effective masses along the motion direction u, 1 / (u^T J M^-1
    J^T u) (``directional_inverse_inertia``), and the near-singular flag:
    where that form falls below ``NEAR_SINGULAR_THRESHOLD`` the mass is
    capped at ``EFFECTIVE_MASS_CAP`` and the flag is set.

    Collisions are modeled as point impacts on the translating end
    effector, so u is the unit translation tangent of the gripper path
    with zero angular part (the translation part of ``increments``).
    ``kins`` and ``increments`` are as for ``tov``, ``inertias`` as for
    ``torque_effort``.
    """
    tangents3 = _fill_tangents(increments[..., :3])
    u = np.concatenate([tangents3, np.zeros_like(tangents3)], axis=-1)
    quad = directional_inverse_inertia(kins, inertias, u)
    near_singular = quad < NEAR_SINGULAR_THRESHOLD
    return np.where(near_singular, EFFECTIVE_MASS_CAP, 1.0 / np.where(near_singular, 1.0, quad)), near_singular


def _track(model: ChainModel, task: TaskTrajectory, grasp: GraspCandidate, ik_seed):
    """(grasp, gripper trajectory, joint path) of a grasp tracked along the
    task, or None when its first waypoint is out of reach."""
    gripper = gripper_trajectory(task, grasp)
    try:
        return grasp, gripper, track_trajectory(model, gripper, ik_seed)
    except GraspInfeasible:
        return None


def _score(model: ChainModel, obj: LinkSpec, s: np.ndarray, gravity, tracked) -> list[GraspScorecard]:
    """Scorecards of tracked grasps (``_track``), in order, scored as one
    stack: once each, the kinematic pass and joint rates of the stacked
    joint paths, the gripper pose increments, and the link inertias with
    the object in each grasp's frame on its own rows; then one call per
    objective and one integration of each over the grid ``s``."""
    grasps, grippers, paths = zip(*tracked)
    positions = np.stack([path.positions for path in paths])
    kins = link_frames_axes(model, positions)
    qdot, qddot = _fd_derivatives(grippers[0].times, positions)
    translations = np.stack([g.translations for g in grippers])
    increments = _segment_deltas(translations, np.stack([g.quaternions for g in grippers]))
    frames = np.stack([attach_object(model, grasp) for grasp in grasps])
    inertias = link_inertias(model, kins, (obj, frames))
    a2, unachievable = tov(kins, increments)
    tau2 = torque_effort(kins, inertias, qdot, qddot, gravity)
    m_e, near_singular = tem(kins, inertias, increments)
    profiles = dict(zip(OBJECTIVES, (a2, tau2, m_e)))
    scalars = {f"h_{name}": np.trapezoid(values, s, axis=-1).tolist() for name, values in profiles.items()}
    return [
        GraspScorecard(
            grasp_id=grasp.id,
            feasible=True,
            **{key: values[i] for key, values in scalars.items()},
            s=s,
            profiles={name: values[i] for name, values in profiles.items()},
            flags=dict(zip(FLAGS, (near_singular[i], unachievable[i], ~path.reachable))),
        )
        for i, (grasp, path) in enumerate(zip(grasps, paths))
    ]


def evaluate_grasp(
    model: ChainModel,
    task: TaskTrajectory,
    grasp: GraspCandidate,
    obj: LinkSpec,
    ik_seed=None,
    gravity=GRAVITY_DEFAULT,
) -> GraspScorecard:
    """Track one grasp and score it as ``evaluate_task`` scores each, as a
    batch of one, over the task's ``path_parameter``.

    A grasp whose first waypoint is unreachable yields an infeasible
    scorecard (no scalars); unreachable waypoints later in the path are
    flagged but the grasp still scores.  ``ik_seed`` is the joint
    configuration IK starts from (see ``track_trajectory``).
    """
    tracked = _track(model, task, grasp, ik_seed)
    if tracked is None:
        return GraspScorecard(grasp_id=grasp.id, feasible=False)
    return _score(model, obj, path_parameter(task), gravity, [tracked])[0]


def check_ik_seed(model: ChainModel, spec: TaskSpec) -> None:
    """Raise ValueError unless the task's IK seed, if any, has one finite
    value per joint."""
    seed = spec.ik_seed
    if seed is not None and seed.shape[0] != model.n:
        raise ValueError(f"task {spec.name!r}: ik_seed has length {seed.shape[0]}, robot has {model.n} joints")
    if seed is not None and not np.isfinite(seed).all():
        raise ValueError(f"task {spec.name!r}: ik_seed {seed.tolist()} is not finite")


def evaluate_task(model: ChainModel, spec: TaskSpec) -> list[GraspScorecard]:
    """Scorecards of the spec's grasps, in order, on its keyframes resampled
    to ``spec.resample_count`` waypoints, over one grid for every grasp:
    the resampled path's ``path_parameter``, its normalized arc length.

    Grasps go in chunks of at most 256 grasp x waypoint rows (but at least
    one grasp): each grasp of a chunk is tracked alone, in input order,
    then the chunk's feasible grasps are scored as one stack.  The chunks
    change no scorecard; past 256 waypoints a chunk is one grasp, at
    ~9 KB of memory per waypoint (~0.9 GB at ``fileio.MAX_COUNT``)."""
    check_ik_seed(model, spec)
    task = resample(spec.trajectory, spec.resample_count)
    s = path_parameter(task)
    s.flags.writeable = False  # shared by every grasp's scorecard
    per_chunk = max(1, _SCORE_ROWS // len(task))
    cards: list[GraspScorecard] = []
    for start in range(0, len(spec.grasps), per_chunk):
        chunk = spec.grasps[start : start + per_chunk]
        tracked = [_track(model, task, grasp, spec.ik_seed) for grasp in chunk]
        feasible = [row for row in tracked if row is not None]
        scored = iter(_score(model, spec.obj, s, spec.gravity, feasible) if feasible else ())
        cards += [
            GraspScorecard(grasp_id=grasp.id, feasible=False) if row is None else next(scored)
            for grasp, row in zip(chunk, tracked)
        ]
    return cards
