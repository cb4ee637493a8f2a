"""Independent closed-form references and test-only derived quantities.

The 2R kinematics and dynamics are hand-derived textbook expressions for
the smallest nontrivial system, and the Pareto scan is a direct pairwise
dominance check; neither shares code with the production modules.

``levi_civita_skew`` is the cross-product matrix as the contraction
eps_ijk v_j, the form ``geometry.skew`` had before it filled the entries
directly.

The rest builds on production functions, so it checks only the logic it
adds.  ``eager_link_frames_axes`` is the kinematic pass with the
joint-kind masks applied inside it and the motion columns built eagerly,
the form ``chain`` ran before its joint constants carried the masks and
``motion`` was derived on first read.  ``pose_of`` wraps seven finished
floats, a DLS target or a forward-kinematics result, in a ``Pose`` without
normalising them again, and ``pose_target`` gives a pose back as those
seven floats.  ``rotation_log`` is a rotation's rotation vector, the
reference for the rotation logs that ``ik.pose_error`` and ``metrics``
take on floats and arrays; ``rotation_pose_error`` is the
IK pose error on ``Rotation`` objects, the form ``ik`` computed before it
worked on floats.  ``loop_fd_derivatives`` is the joint-rate finite
differences one waypoint at a time, the form ``metrics._fd_derivatives``
had before it worked on whole arrays (it was ``ik``'s until the tracker
stopped deriving rates).  ``rank_deficient_manipulability`` is one
rank-deficient row of ``metrics.directional_manipulability``, with sums
over selected eigenbasis coordinates, as the kernel ran those rows one at
a time before it took them as one stack.
``reference_dls`` is the damped least-squares loop as it ran before solves
stopped on a stall, on the production forward kinematics and Jacobian and
``rotation_pose_error``; ``solve_from_seed`` starts the production
``ik._solve`` from a seed as ``track_trajectory`` starts it.
``gravity_vector`` and ``coriolis_matrix`` (Christoffel form, finite
differences of the CRBA mass matrix) derive the terms of the equation of
motion from ``inverse_dynamics`` and ``mass_matrix``.  ``operational_mass_inverse`` is the whole 6x6
operational-space inverse inertia J M^-1 J^T, with the production guard,
and ``directional_effective_mass`` reads 1 / (u^T Lambda^-1 u) off it with
the cap-and-flag rule: the form ``tem`` took before it solved for
w^T M^-1 w with w = J^T u (``dynamics.directional_inverse_inertia``).
``effective_mass`` is the single-configuration form of the ``tem``
objective on those two.
``merge_bodies`` folds two bodies into one by the parallel-axis theorem,
and ``merged_model`` puts a held body into a chain's last link that way,
the form the dynamics took a grasped object in before it became one more
body added to the last link's inertia.  ``slerp`` and ``resample_poses``
are the keyframe resampling on ``Rotation`` and ``Pose`` objects, the form
``task.resample`` computed before it worked on the keyframe arrays.
``trajectory_of`` and ``trajectory_poses`` turn poses into a trajectory's
arrays and back, bit for bit, the two ways a ``TaskTrajectory`` had before
its arrays became its only constructor's arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from postgrasp import ik
from postgrasp.chain import (
    ChainModel,
    LinkSpec,
    _check_q,
    forward_kinematics,
    geometric_jacobian,
    link_frames_axes,
)
from postgrasp.dynamics import (
    CONDITION_LIMIT,
    GRAVITY_DEFAULT,
    DegenerateModelError,
    attach_object,
    inverse_dynamics,
    link_inertias,
    mass_matrix,
)
from postgrasp.metrics import (
    _NULL_LEAK_TOL,
    _RANK_EPS,
    EFFECTIVE_MASS_CAP,
    NEAR_SINGULAR_THRESHOLD,
    _check_unit,
)
from postgrasp.geometry import Pose, Rotation, skew
from postgrasp.task import GraspCandidate, TaskTrajectory

CHRISTOFFEL_STEP = 1e-6  # rad; truncation/round-off balance for float64


@dataclass(frozen=True)
class TwoRParams:
    """Planar 2R arm in the x-y plane, revolute about z, point masses at the
    link tips, in-plane gravity (gx, gy)."""

    l1: float = 1.0
    l2: float = 1.0
    m1: float = 1.0
    m2: float = 1.0
    gx: float = 0.0
    gy: float = -9.81

    def __post_init__(self):
        if min(self.l1, self.l2, self.m1, self.m2) <= 0.0:
            raise ValueError("lengths and masses must be positive")


def two_r_closed_form(params: TwoRParams, q, qd=(0.0, 0.0), qdd=(0.0, 0.0)) -> dict:
    """Hand-derived Lagrangian kinematics/dynamics of the planar 2R arm.

    With point masses at the tips the Lagrangian L = T - V gives

        M11 = m1 l1^2 + m2 (l1^2 + l2^2 + 2 l1 l2 c2)
        M12 = M21 = m2 (l2^2 + l1 l2 c2)
        M22 = m2 l2^2

    and the Christoffel Coriolis matrix with h = -m2 l1 l2 s2:

        C = [[h qd2, h (qd1 + qd2)],
             [-h qd1, 0]]

    Gravity: N_i = -sum_k m_k g . d(tip_k)/d(q_i).
    """
    l1, l2, m1, m2 = params.l1, params.l2, params.m1, params.m2
    g = np.array([params.gx, params.gy])
    q1, q2 = float(q[0]), float(q[1])
    qd = np.asarray(qd, dtype=float)
    qdd = np.asarray(qdd, dtype=float)
    c1, s1 = np.cos(q1), np.sin(q1)
    c12, s12 = np.cos(q1 + q2), np.sin(q1 + q2)
    c2, s2 = np.cos(q2), np.sin(q2)

    tip1 = np.array([l1 * c1, l1 * s1])
    tip2 = tip1 + np.array([l2 * c12, l2 * s12])

    jac = np.zeros((6, 2))
    jac[0] = [-l1 * s1 - l2 * s12, -l2 * s12]
    jac[1] = [l1 * c1 + l2 * c12, l2 * c12]
    jac[5] = [1.0, 1.0]

    mass = np.array(
        [
            [m1 * l1**2 + m2 * (l1**2 + l2**2 + 2 * l1 * l2 * c2), m2 * (l2**2 + l1 * l2 * c2)],
            [m2 * (l2**2 + l1 * l2 * c2), m2 * l2**2],
        ]
    )
    h = -m2 * l1 * l2 * s2
    coriolis = np.array([[h * qd[1], h * (qd[0] + qd[1])], [-h * qd[0], 0.0]])

    dtip1 = np.array([[-l1 * s1, 0.0], [l1 * c1, 0.0]])
    dtip2 = np.array([[-l1 * s1 - l2 * s12, -l2 * s12], [l1 * c1 + l2 * c12, l2 * c12]])
    grav = -(m1 * dtip1.T @ g + m2 * dtip2.T @ g)

    tau = mass @ qdd + coriolis @ qd + grav
    potential = -(m1 * g @ tip1 + m2 * g @ tip2)
    return {
        "tip": np.array([tip2[0], tip2[1], 0.0]),
        "angle": q1 + q2,
        "J": jac,
        "M": mass,
        "C": coriolis,
        "N": grav,
        "tau": tau,
        "V": potential,
    }


def two_r_ik(params: TwoRParams, x: float, y: float) -> list[tuple[float, float]]:
    """Closed-form position IK branches of the planar 2R arm."""
    l1, l2 = params.l1, params.l2
    r2 = x * x + y * y
    c2 = (r2 - l1 * l1 - l2 * l2) / (2.0 * l1 * l2)
    if abs(c2) > 1.0:
        return []
    branches = []
    for q2 in (np.arccos(np.clip(c2, -1.0, 1.0)), -np.arccos(np.clip(c2, -1.0, 1.0))):
        q1 = np.arctan2(y, x) - np.arctan2(l2 * np.sin(q2), l1 + l2 * np.cos(q2))
        branches.append((float(q1), float(q2)))
    return branches


def brute_force_pareto(points, senses) -> set[int]:
    """O(n^2) pairwise dominance scan; returns indices of the front."""
    pts = [tuple(row) for row in np.asarray(points, dtype=float)]
    signs = [1.0 if sense == "min" else -1.0 for sense in senses]

    def dominates(a, b):
        better_or_equal = all(sa * va <= sa * vb for sa, va, vb in zip(signs, a, b))
        strictly = any(sa * va < sa * vb for sa, va, vb in zip(signs, a, b))
        return better_or_equal and strictly

    front = set()
    for i, p in enumerate(pts):
        if not any(dominates(other, p) for j, other in enumerate(pts) if j != i):
            front.add(i)
    return front


def finite_difference_jacobian(f, x, h: float = 1e-7) -> np.ndarray:
    """Central-difference Jacobian of a vector function, column by column."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(f(x), dtype=float)
    jac = np.zeros((f0.shape[0], x.shape[0]))
    for k in range(x.shape[0]):
        dx = np.zeros_like(x)
        dx[k] = h
        jac[:, k] = (np.asarray(f(x + dx)) - np.asarray(f(x - dx))) / (2.0 * h)
    return jac


def levi_civita_skew(v) -> np.ndarray:
    """Cross-product matrices of (..., 3) vectors: skew(v)[i, k] = eps_ijk v_j."""
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
    return np.einsum("ijk,...j->...ik", eps, np.asarray(v, dtype=float))


def cuboid_inertia(mass: float, dims) -> np.ndarray:
    """Inertia tensor of a uniform cuboid about its CoM, axis-aligned."""
    a, b, c = np.asarray(dims, dtype=float)
    return np.diag(
        [
            mass / 12.0 * (b * b + c * c),
            mass / 12.0 * (a * a + c * c),
            mass / 12.0 * (a * a + b * b),
        ]
    )


def pose_of(floats) -> Pose:
    """The ``Pose`` of seven finished floats, the form of a DLS target and
    of ``forward_kinematics``'s result: the quaternion (w, x, y, z), held
    as given, not normalised again, then the translation."""
    w, x, y, z, *translation = floats
    rotation = Rotation.identity()
    vars(rotation).update(w=w, x=x, y=y, z=z)
    return Pose(rotation, translation)


def pose_target(pose: Pose) -> tuple:
    """A pose's seven floats as DLS reads a target: the quaternion
    (w, x, y, z), then the translation."""
    r = pose.rotation
    return (r.w, r.x, r.y, r.z, *pose.translation.tolist())


def rotation_log(r: Rotation) -> np.ndarray:
    """Rotation vector (axis * angle), angle in [0, pi], of a ``Rotation``."""
    v = np.array([r.x, r.y, r.z])
    s = np.linalg.norm(v)
    if s < 1e-9:
        # small angle: 2*atan2(s, w)/s -> 2/w with w ~ 1
        return 2.0 * v
    angle = 2.0 * math.atan2(s, r.w)
    return (angle / s) * v


def rotation_pose_error(target: Pose, current: Pose) -> np.ndarray:
    """(position error; rotation vector of target * current^-1), built from
    ``Rotation`` objects."""
    dp = target.translation - current.translation
    drot = rotation_log(target.rotation * current.rotation.inverse())
    return np.concatenate([dp, drot])


def loop_fd_derivatives(times, pos) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic-fit finite differences, one waypoint per loop pass: the
    three-point stencil from k = clip(i - 1, 0, n - 3)."""
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


def rank_deficient_manipulability(gram: np.ndarray, u: np.ndarray) -> tuple[float, bool]:
    """(a^2, unachievable) of one 6x6 Gram matrix J J^T whose least
    eigenvalue is below 1e-12 and one unit 6-direction."""
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


def eager_link_frames_axes(model: ChainModel, q) -> dict[str, np.ndarray]:
    """The kinematic pass as it ran while the joint-kind masks were applied
    inside it and the motion columns were built eagerly: every field of a
    ``KinematicState``, ``motion`` included, by name.  The joint constants
    are stacked here as ``chain`` stacked them then, unmasked."""
    q = _check_q(model, q)
    n = model.n
    fixed = np.stack([j.origin.to_matrix() for j in model.joints])
    turn1 = np.zeros((n, 4, 4))
    turn2 = np.zeros((n, 4, 4))
    slide_basis = np.zeros((n, 4, 4))
    link_axes = np.stack([j.axis for j in model.joints])
    for i, k in enumerate(skew(link_axes)):
        turn1[i, :3, :3] = fixed[i, :3, :3] @ k
        turn2[i, :3, :3] = fixed[i, :3, :3] @ k @ k
        slide_basis[i, :3, 3] = fixed[i, :3, :3] @ link_axes[i]
    revolute = np.array([j.kind == "revolute" for j in model.joints], dtype=float)
    prismatic = 1.0 - revolute

    def cross(a, b):
        outer = a[..., :, None] * b[..., None, :]
        return (outer - outer.swapaxes(-1, -2))[..., [1, 2, 0], [2, 0, 1]]

    batch = q.shape[:-1]
    qj = q.reshape(-1, n).T
    local = (
        fixed[:, None]
        + (np.sin(qj) * revolute[:, None])[..., None, None] * turn1[:, None]
        + ((1.0 - np.cos(qj)) * revolute[:, None])[..., None, None] * turn2[:, None]
        + (qj * prismatic[:, None])[..., None, None] * slide_basis[:, None]
    )
    frames = np.empty_like(local)
    t = model.base_pose.to_matrix()
    for i in range(n):
        t = np.matmul(t, local[i], out=frames[i])
    tool = (t @ model.tool_transform.to_matrix()).reshape(batch + (4, 4))
    frames = frames.swapaxes(0, 1).reshape(batch + (n, 4, 4))
    rotations = frames[..., :3, :3]
    origins = frames[..., :3, 3]
    p_op = tool[..., :3, 3]
    axes = np.matmul(rotations, link_axes[:, :, None])[..., 0]
    spin = axes * revolute[:, None]
    slide = axes * prismatic[:, None]
    arms = np.empty((2,) + origins.shape)
    arms[0] = origins
    np.subtract(origins, p_op[..., None, :], out=arms[1])
    lever = cross(arms, spin)
    return {
        "rotations": rotations,
        "origins": origins,
        "motion": np.concatenate([lever[0] + slide, spin], axis=-1),
        "tool_rotation": tool[..., :3, :3],
        "tool_position": p_op,
        "jacobian": np.concatenate(
            [(lever[1] + slide).swapaxes(-1, -2), spin.swapaxes(-1, -2)], axis=-2
        ),
        "spin": spin,
        "slide": slide,
    }


def reference_dls(model, target, seed) -> tuple[np.ndarray, bool]:
    """Damped least-squares IK that runs to ``ik.MAX_ITERATIONS``
    unless it meets the tolerances: the last iterate and whether it meets
    them."""
    lo, hi = model.lower, model.upper
    q = np.clip(np.asarray(seed, dtype=float).reshape(model.n), lo, hi)
    lam2 = ik.DAMPING**2
    err = rotation_pose_error(target, pose_of(forward_kinematics(link_frames_axes(model, q))))
    for _ in range(ik.MAX_ITERATIONS):
        if (
            np.linalg.norm(err[:3]) <= ik.POSITION_TOLERANCE
            and np.linalg.norm(err[3:]) <= ik.ORIENTATION_TOLERANCE
        ):
            return q, True
        jac = geometric_jacobian(link_frames_axes(model, q))
        a = jac @ jac.T + lam2 * np.eye(6)
        dq = jac.T @ np.linalg.solve(a, err)
        norm = np.linalg.norm(dq)
        if norm > ik.MAX_STEP:
            dq *= ik.MAX_STEP / norm
        err_norm = np.linalg.norm(err)
        for _ in range(5):
            q_new = np.clip(q + dq, lo, hi)
            err_new = rotation_pose_error(target, pose_of(forward_kinematics(link_frames_axes(model, q_new))))
            if np.linalg.norm(err_new) <= err_norm or np.linalg.norm(dq) < 1e-12:
                break
            dq = 0.5 * dq
        q, err = q_new, err_new
    if (
        np.linalg.norm(err[:3]) <= ik.POSITION_TOLERANCE
        and np.linalg.norm(err[3:]) <= ik.ORIENTATION_TOLERANCE
    ):
        return q, True
    return q, False


def solve_from_seed(model, target, seed) -> tuple[np.ndarray, tuple, bool, int]:
    """``ik._solve`` from ``seed`` clamped to the joint limits, with its
    pass and tool pose: the last iterate, its tool pose, whether it meets
    the tolerances and the number of iterations run."""
    q = np.minimum(np.maximum(np.asarray(seed, dtype=float).reshape(model.n), model.lower), model.upper)
    kin = link_frames_axes(model, q)
    q, _, current, ok, iterations = ik._solve(model, target, q, kin, forward_kinematics(kin))
    return q, current, ok, iterations


def gravity_vector(model: ChainModel, q, gravity=GRAVITY_DEFAULT) -> np.ndarray:
    """Configuration-dependent gravity torques (the gradient of the
    gravitational potential)."""
    n = model.n
    kin = link_frames_axes(model, q)
    return inverse_dynamics(kin, link_inertias(model, kin), np.zeros(n), np.zeros(n), gravity=gravity)


def coriolis_matrix(model: ChainModel, q, qdot, step: float = CHRISTOFFEL_STEP) -> np.ndarray:
    """Coriolis/centrifugal matrix in Christoffel form.

    C_ij = 1/2 sum_k (dM_ij/dq_k + dM_ik/dq_j - dM_kj/dq_i) qd_k, with the
    mass-matrix partials taken by central finite differences.  This form
    guarantees skew-symmetry of (Mdot - 2C).
    """
    q = _check_q(model, q)
    qd = _check_q(model, qdot)
    n = model.n
    partials = np.zeros((n, n, n))
    for k in range(n):
        dq = np.zeros(n)
        dq[k] = step
        plus, minus = link_frames_axes(model, q + dq), link_frames_axes(model, q - dq)
        partials[k] = (
            mass_matrix(plus, link_inertias(model, plus))
            - mass_matrix(minus, link_inertias(model, minus))
        ) / (2.0 * step)
    c = (
        np.einsum("kij,k->ij", partials, qd)
        + np.einsum("jik,k->ij", partials, qd)
        - np.einsum("ikj,k->ij", partials, qd)
    )
    return 0.5 * c


def operational_mass_inverse(kin, inertias: np.ndarray) -> np.ndarray:
    """Operational-space inverse inertia J M^-1 J^T at the operational
    point, per configuration of the state, symmetrised; raises
    DegenerateModelError where ``dynamics.directional_inverse_inertia``
    does."""
    m = mass_matrix(kin, inertias)
    eigs = np.abs(np.linalg.eigvalsh(m))
    if np.any(eigs.min(axis=-1) <= eigs.max(axis=-1) / CONDITION_LIMIT):
        raise DegenerateModelError(
            "joint-space mass matrix is numerically singular; "
            "check for massless distal links"
        )
    jac = kin.jacobian
    lam_inv = jac @ np.linalg.solve(m, jac.swapaxes(-1, -2))
    return 0.5 * (lam_inv + lam_inv.swapaxes(-1, -2))


def directional_effective_mass(lambda_inv, direction) -> tuple[np.ndarray, np.ndarray]:
    """Effective mass 1 / (u^T Lambda^-1 u) along unit directions, per row
    of (..., 6, 6) inverse inertias and (..., 6) directions, and the
    near-singular flag: where the form falls below
    ``NEAR_SINGULAR_THRESHOLD`` the value is ``EFFECTIVE_MASS_CAP``."""
    u = _check_unit(direction)
    quad = np.einsum("...i,...i->...", (u[..., None, :] @ lambda_inv)[..., 0, :], u)
    near_singular = quad < NEAR_SINGULAR_THRESHOLD
    values = np.where(near_singular, EFFECTIVE_MASS_CAP, 1.0 / np.where(near_singular, 1.0, quad))
    return values, near_singular


def effective_mass(
    model: ChainModel,
    q,
    grasp: GraspCandidate,
    obj: LinkSpec,
    direction,
) -> float:
    """Mass an obstacle would perceive in a collision along ``direction``:
    1 / (u^T Lambda_tot^-1 u), capped at 1e9 kg near singularities."""
    kin = link_frames_axes(model, q)
    lam_inv = operational_mass_inverse(kin, link_inertias(model, kin, (obj, attach_object(model, grasp))))
    value, _ = directional_effective_mass(lam_inv, direction)
    return value


def merge_bodies(m1, c1, i1, m2, c2, i2) -> tuple:
    """Mass, CoM and inertia about the CoM of two bodies given in one
    frame as one rigid body: each inertia shifted to the common CoM by the
    parallel-axis theorem, then summed."""
    m = m1 + m2
    if m < 1e-12:
        return 0.0, np.zeros(3), i1 + i2
    c = (m1 * np.asarray(c1, float) + m2 * np.asarray(c2, float)) / m

    def shifted(mi, ci, ii):
        d = np.asarray(ci, float) - c
        return ii + mi * (float(d @ d) * np.eye(3) - np.outer(d, d))

    return m, c, shifted(m1, c1, i1) + shifted(m2, c2, i2)


def object_in_last_link(model: ChainModel, grasp: GraspCandidate, obj: LinkSpec) -> LinkSpec:
    """The grasped object re-expressed as a body in the last link's frame:
    the object's frame sits in that frame at T g^-1 (tool transform T,
    grasp g), so its CoM is at T g^-1 applied to the object's CoM and its
    inertia about the CoM is R I R^T with R = R_T R_g^-1."""
    g = grasp.transform.inverse()
    tool = model.tool_transform
    r = tool.rotation.as_matrix() @ g.rotation.as_matrix()
    return LinkSpec(obj.mass, tool.apply(g.apply(obj.com)), r @ obj.inertia @ r.T)


def merged_model(model: ChainModel, body: LinkSpec) -> ChainModel:
    """``model`` with ``body``, given in its last link's frame, merged
    into that link (``merge_bodies``)."""
    last = model.links[-1]
    merged = merge_bodies(last.mass, last.com, last.inertia, body.mass, body.com, body.inertia)
    return replace(model, links=model.links[:-1] + (LinkSpec(*merged),))


def slerp(a: Rotation, b: Rotation, u: float) -> Rotation:
    """Spherical interpolation from a (u=0) to b (u=1)."""
    q0 = a.quat
    q1 = b.quat
    dot = float(np.dot(q0, q1))
    if dot < 0.0:
        q1 = -q1
        dot = -dot
    dot = min(dot, 1.0)
    theta = math.acos(dot)
    if theta < 1e-9:
        q = (1.0 - u) * q0 + u * q1
    else:
        st = math.sin(theta)
        q = (math.sin((1.0 - u) * theta) / st) * q0 + (math.sin(u * theta) / st) * q1
    return Rotation(*q)


def resample_poses(task: TaskTrajectory, count: int) -> TaskTrajectory:
    """Keyframes densified to ``count`` waypoints uniform in time, one
    ``Pose`` per waypoint: linear interpolation of translation and
    ``slerp`` of rotation."""
    times = np.linspace(0.0, task.total_time, count)
    keyframes = trajectory_poses(task)
    poses = []
    for t in times:
        k = int(np.searchsorted(task.times, t, side="right") - 1)
        k = min(max(k, 0), len(task) - 2)
        t0, t1 = task.times[k], task.times[k + 1]
        u = (t - t0) / (t1 - t0)
        u = min(max(u, 0.0), 1.0)
        a, b = keyframes[k], keyframes[k + 1]
        poses.append(Pose(slerp(a.rotation, b.rotation, u), (1.0 - u) * a.translation + u * b.translation))
    return trajectory_of(poses, times)


def trajectory_of(poses, times) -> TaskTrajectory:
    """The trajectory of ``poses`` at ``times``, holding each pose's
    quaternion and translation as they are."""
    poses = tuple(poses)
    return TaskTrajectory([p.rotation.quat for p in poses], [p.translation for p in poses], times)


def trajectory_poses(trajectory: TaskTrajectory) -> tuple[Pose, ...]:
    """The waypoints of ``trajectory`` as poses, each wrapping its stored
    quaternion and translation row as they are, not normalised again."""
    return tuple(
        pose_of(q + t) for q, t in zip(trajectory.quaternions.tolist(), trajectory.translations.tolist())
    )
