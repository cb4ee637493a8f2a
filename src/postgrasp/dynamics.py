"""Joint-space and operational-space dynamics of serial chains.

Two independent algorithms are used on purpose: the mass matrix comes from
a composite-rigid-body assembly while inverse dynamics is a recursive
Newton-Euler pass, so tests can cross-validate one against the other.
Both work with world-frame spatial quantities referred to the world
origin, which keeps every frame bookkeeping step explicit.

A grasped object enters the dynamics either by merging its rigid body into
the last link (``ChainModel.with_tool_body``, used by the torque objective)
or through the congruence-transformed 6x6 object inertia pulled into joint
space by the Jacobian (``augmented_mass_matrix``); the two routes agree to
machine precision.
"""

from __future__ import annotations

import numpy as np

from .chain import ChainModel, _check_q, forward_kinematics, geometric_jacobian, link_frames_axes
from .geometry import SpatialInertia, skew, transform_spatial_inertia
from .task import GraspCandidate

GRAVITY_DEFAULT = np.array([0.0, 0.0, -9.81])

CONDITION_LIMIT = 1e12


class DegenerateModelError(ValueError):
    """Joint-space mass matrix is numerically singular."""


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def _link_spatial_world(link, pose) -> np.ndarray:
    """6x6 spatial inertia of a link referred to the world origin."""
    m = link.mass
    r = pose.rotation.as_matrix()
    c = pose.apply(link.com)
    sc = skew(c)
    out = np.zeros((6, 6))
    out[:3, :3] = m * np.eye(3)
    out[:3, 3:] = -m * sc
    out[3:, :3] = m * sc
    out[3:, 3:] = r @ link.inertia @ r.T + m * (sc @ sc.T)
    return out


def _motion_subspaces(model: ChainModel, poses, axes) -> np.ndarray:
    """Per-joint 6-vector motion columns referred to the world origin."""
    s = np.zeros((model.n, 6))
    for i, (spec, pose, z) in enumerate(zip(model.joints, poses, axes)):
        if spec.kind == "revolute":
            s[i, :3] = np.cross(pose.translation, z)
            s[i, 3:] = z
        else:
            s[i, :3] = z
    return s


def mass_matrix(model: ChainModel, q) -> np.ndarray:
    """Joint-space mass matrix by the composite-rigid-body method."""
    q = _check_q(model, q)
    poses, axes = link_frames_axes(model, q)
    n = model.n
    composite = np.zeros((n, 6, 6))
    acc = np.zeros((6, 6))
    for i in range(n - 1, -1, -1):
        acc = acc + _link_spatial_world(model.links[i], poses[i])
        composite[i] = acc
    s = _motion_subspaces(model, poses, axes)
    m = np.zeros((n, n))
    for j in range(n):
        f = composite[j] @ s[j]
        for i in range(j + 1):
            m[i, j] = s[i] @ f
            m[j, i] = m[i, j]
    return m


def inverse_dynamics(model: ChainModel, q, qdot, qddot, gravity=GRAVITY_DEFAULT) -> np.ndarray:
    """Joint torques by recursive Newton-Euler.

    A grasped object enters through the model: attach it with
    ``ChainModel.with_tool_body`` first.
    """
    q = _check_q(model, q)
    qd = _check_q(model, qdot)
    qdd = _check_q(model, qddot)
    g = np.asarray(gravity, dtype=float).reshape(3)
    poses, axes = link_frames_axes(model, q)
    n = model.n

    # outward pass: angular velocity/acceleration and linear acceleration
    # of each link-frame origin; uniform gravity enters as a base
    # acceleration of -g
    w = np.zeros((n, 3))
    dw = np.zeros((n, 3))
    a = np.zeros((n, 3))
    w_p = np.zeros(3)
    dw_p = np.zeros(3)
    a_p = -g
    p_p = model.base_pose.translation
    for i, (spec, pose, z) in enumerate(zip(model.joints, poses, axes)):
        r = pose.translation - p_p
        a_carry = a_p + np.cross(dw_p, r) + np.cross(w_p, np.cross(w_p, r))
        if spec.kind == "revolute":
            w[i] = w_p + qd[i] * z
            dw[i] = dw_p + qdd[i] * z + np.cross(w_p, qd[i] * z)
            a[i] = a_carry
        else:
            w[i] = w_p
            dw[i] = dw_p
            a[i] = a_carry + qdd[i] * z + 2.0 * np.cross(w_p, qd[i] * z)
        w_p, dw_p, a_p, p_p = w[i], dw[i], a[i], pose.translation

    # per-link net force at the CoM and moment about the CoM
    force = np.zeros((n, 3))
    moment = np.zeros((n, 3))
    coms = np.zeros((n, 3))
    for i, (link, pose) in enumerate(zip(model.links, poses)):
        coms[i] = pose.apply(link.com)
        d = coms[i] - pose.translation
        a_com = a[i] + np.cross(dw[i], d) + np.cross(w[i], np.cross(w[i], d))
        force[i] = link.mass * a_com
        i_world = pose.rotation.as_matrix() @ link.inertia @ pose.rotation.as_matrix().T
        moment[i] = i_world @ dw[i] + np.cross(w[i], i_world @ w[i])

    # inward pass: accumulate wrenches and project onto the joint axes
    tau = np.zeros(n)
    f_child = np.zeros(3)
    n_child = np.zeros(3)
    p_child = np.zeros(3)
    for i in range(n - 1, -1, -1):
        p = poses[i].translation
        f_i = force[i].copy()
        n_i = moment[i] + np.cross(coms[i] - p, force[i])
        if i < n - 1:
            f_i += f_child
            n_i += n_child + np.cross(p_child - p, f_child)
        if model.joints[i].kind == "revolute":
            tau[i] = axes[i] @ n_i
        else:
            tau[i] = axes[i] @ f_i
        f_child, n_child, p_child = f_i, n_i, p
    return tau


def object_inertia_in_gripper(grasp: GraspCandidate, obj: SpatialInertia) -> SpatialInertia:
    """Object inertia (given at the object CoM) re-expressed in the gripper
    frame through the grasp transform."""
    return transform_spatial_inertia(obj, grasp.transform.inverse())


def augmented_mass_matrix(
    model: ChainModel, q, grasp: GraspCandidate, obj: SpatialInertia
) -> np.ndarray:
    """Arm mass matrix plus the grasped object's inertia mapped into joint
    space: M_tot = M_arm + J^T M_obj J.

    The object inertia is first re-expressed in the gripper frame through
    the fixed grasp transform, then rotated into world axes at the current
    configuration so it matches the world-frame Jacobian.
    """
    q = _check_q(model, q)
    gmo = object_inertia_in_gripper(grasp, obj).matrix
    r = forward_kinematics(model, q).rotation.as_matrix()
    rblk = np.zeros((6, 6))
    rblk[:3, :3] = r
    rblk[3:, 3:] = r
    mo_world = rblk @ gmo @ rblk.T
    jac = geometric_jacobian(model, q)
    return _symmetrize(mass_matrix(model, q) + jac.T @ mo_world @ jac)


def operational_mass_inverse(
    model: ChainModel,
    q,
    grasp: GraspCandidate | None = None,
    obj: SpatialInertia | None = None,
) -> np.ndarray:
    """Operational-space inverse inertia J M_tot^-1 J^T at the operational
    point.

    Valid for redundant chains; at a singular configuration the result is
    rank-deficient but still well defined.  Raises DegenerateModelError if
    the joint-space mass matrix itself is numerically singular.
    """
    q = _check_q(model, q)
    if (grasp is None) != (obj is None):
        raise ValueError("grasp and obj must be given together")
    if obj is not None:
        m_tot = augmented_mass_matrix(model, q, grasp, obj)
    else:
        m_tot = mass_matrix(model, q)
    if np.linalg.cond(m_tot) > CONDITION_LIMIT:
        raise DegenerateModelError(
            "joint-space mass matrix is numerically singular; "
            "check for massless distal links"
        )
    jac = geometric_jacobian(model, q)
    return _symmetrize(jac @ np.linalg.solve(m_tot, jac.T))
