"""Joint-space and operational-space dynamics of serial chains.

Every function reads one ``KinematicState`` (``chain.link_frames_axes``)
instead of rebuilding the link frames, and accepts a batched one: a state
of m configurations (with joint rates of shape (m, n)) gives m mass
matrices or torque vectors in one call.  Two independent algorithms are
used on purpose: the mass matrix comes from a composite-rigid-body assembly
(CRBA) while inverse dynamics is a recursive Newton-Euler pass (RNEA), so
tests can cross-validate one against the other.  Both work with world-frame
spatial vectors (linear; angular) referred to the world origin.  In that
frame no quantity needs transforming from one link to the next, so both
recursions are running sums along the chain (Featherstone, *Rigid Body
Dynamics Algorithms*, 2008, ch. 5-6).  Both read the pass's joints as
motion columns (``motion_columns``), derived here from its axes and
origins.

A rigid body is given by its mass, its CoM and its 3x3 inertia about the
CoM in its own frame (``chain.LinkSpec``), a link's from the robot file and
the grasped object's from the task file.  ``link_inertias`` is the one
place that reads a model's bodies: it places each body by its frame on a
kinematic pass and gives its 6x6 world-origin inertia.  The recursions take
that pass and those inertias and no model, so the inertial parameters are
their explicit, linear input.  A grasped object is one more body on the
last link: ``attach_object`` gives the pose of its frame in that link's
frame, the tool transform times the inverse grasp, and ``link_inertias``
places the body in that frame by the same formula as a link and adds its
inertia to the last link's, as spatial inertias referred to one point add
(Featherstone ch. 2).  Those link inertias, built once per batch of grasps
with each grasp's object frame on its rows (``metrics.evaluate_task``),
serve RNEA for the torque objective and CRBA for the effective-mass
objective (``directional_inverse_inertia``, the operational-space inverse
inertia read along one direction per row).  ``augmented_mass_matrix`` is
the independent cross-check: the arm's mass matrix plus the object's 6x6
inertia about the operational point pulled into joint space by the
Jacobian, M + J^T M_obj J.  The two routes agree to machine precision.
"""

from __future__ import annotations

import numpy as np

from .chain import ChainModel, KinematicState, LinkSpec, link_frames_axes
from .geometry import cross, skew
from .task import GraspCandidate

GRAVITY_DEFAULT = np.array([0.0, 0.0, -9.81])

CONDITION_LIMIT = 1e12


class DegenerateModelError(ValueError):
    """Joint-space mass matrix is numerically singular."""


def _spatial_inertias(rot, origins, masses, coms, inertias) -> np.ndarray:
    """(..., 6, 6) world-origin inertias of bodies given by their masses,
    CoMs and inertias about the CoM in frames of world rotations ``rot``
    (..., 3, 3) and origins ``origins`` (..., 3)."""
    m = np.asarray(masses)[..., None, None]
    com_x = skew(origins + (rot @ coms[..., None])[..., 0])
    m_com_x = m * com_x
    out = np.zeros(com_x.shape[:-2] + (6, 6))
    out[..., :3, :3] = m * np.eye(3)
    out[..., :3, 3:] = -m_com_x
    out[..., 3:, :3] = m_com_x
    out[..., 3:, 3:] = rot @ inertias @ rot.swapaxes(-1, -2) - m_com_x @ com_x
    return out


def link_inertias(model: ChainModel, kin: KinematicState, attached=None) -> np.ndarray:
    """(..., n, 6, 6) inertias of ``model``'s links on the pass ``kin``,
    referred to the world origin, world axes, read-only: the input of
    ``mass_matrix``, ``inverse_dynamics`` and ``directional_inverse_inertia``.

    ``attached`` is ``(body, frames)``: a body (``LinkSpec``) rigidly held
    by the last link and the (..., 4, 4) pose of its frame in that link's
    frame (``attach_object``), one pose or one per index of the pass's
    leading batch axes (one grasp's per row of a stack of joint paths); the
    body's inertia, placed in its frame, is added to that link's."""
    if kin.n != model.n:
        raise ValueError(f"kinematic state has {kin.n} joints, model has {model.n}")
    out = _spatial_inertias(kin.rotations, kin.origins, model.masses, model.coms, model.inertias)
    if attached is not None:
        body, frames = attached
        frames = np.asarray(frames, dtype=float)
        # trailing batch axes of the pass that the frames do not carry broadcast
        frames = frames.reshape(frames.shape[:-2] + (1,) * (kin.origins.ndim - frames.ndim) + (4, 4))
        last = kin.rotations[..., -1, :, :]
        out[..., -1, :, :] += _spatial_inertias(
            last @ frames[..., :3, :3],
            kin.origins[..., -1, :] + (last @ frames[..., :3, 3:])[..., 0],
            body.mass,
            body.com,
            body.inertia,
        )
    out.flags.writeable = False
    return out


def motion_columns(kin: KinematicState) -> np.ndarray:
    """(..., n, 6) joint motion columns of a pass referred to the world
    origin: (p x z; z) for a revolute joint, (z; 0) for a prismatic one."""
    return np.concatenate([cross(kin.origins, kin.spin) + kin.slide, kin.spin], axis=-1)


def _check_inertias(kin: KinematicState, inertias: np.ndarray) -> None:
    want = kin.origins.shape[:-1] + (6, 6)
    if inertias.shape != want:
        raise ValueError(
            f"link inertias of shape {inertias.shape} do not fit the kinematic "
            f"state's {want}"
        )


def mass_matrix(kin: KinematicState, inertias: np.ndarray) -> np.ndarray:
    """Joint-space mass matrix by the composite-rigid-body method:
    M_ij = s_i . C_j s_j for i <= j, with C_j the inertia of links j..n-1
    (``inertias`` is ``link_inertias`` on ``kin``)."""
    _check_inertias(kin, inertias)
    s = motion_columns(kin)
    composite = np.flip(np.cumsum(np.flip(inertias, -3), axis=-3), -3)
    sf = s @ (composite @ s[..., None])[..., 0].swapaxes(-1, -2)
    return np.where(np.tri(kin.n, dtype=bool), sf.swapaxes(-1, -2), sf)


def _motion_cross(v: np.ndarray) -> np.ndarray:
    """(..., 6, 6) matrices of the spatial cross product v x for (..., 6)
    motion vectors, [[w x, v_lin x], [0, w x]] in (linear; angular) order;
    the force cross product v x* is -(v x)^T."""
    sk = skew(v.reshape(v.shape[:-1] + (2, 3)))
    out = np.zeros(v.shape[:-1] + (6, 6))
    out[..., :3, :3] = out[..., 3:, 3:] = sk[..., 1, :, :]
    out[..., :3, 3:] = sk[..., 0, :, :]
    return out


def inverse_dynamics(
    kin: KinematicState, inertias: np.ndarray, qdot, qddot, gravity=GRAVITY_DEFAULT
) -> np.ndarray:
    """Joint torques by recursive Newton-Euler.

    Link i's spatial velocity is the sum of s_k qd_k over joints k <= i, its
    acceleration the sum of s_k qdd_k + v_k x s_k qd_k; uniform gravity
    enters as a base acceleration of -g.  Joint i carries the sum of the
    link forces I_k a_k + v_k x* I_k v_k over links k >= i.  A grasped
    object enters through the inertias: build them with ``link_inertias``
    and the frame ``attach_object`` returns.
    """
    _check_inertias(kin, inertias)
    qd = np.asarray(qdot, dtype=float)
    qdd = np.asarray(qddot, dtype=float)
    batch = kin.origins.shape[:-1]
    if qd.shape != batch or qdd.shape != batch:
        raise ValueError(
            f"joint rates of shapes {qd.shape} and {qdd.shape} do not match "
            f"the kinematic state's {batch}"
        )
    g = np.asarray(gravity, dtype=float).reshape(3)
    s = motion_columns(kin)
    s_qd = s * qd[..., None]
    v = np.cumsum(s_qd, axis=-2)
    vx = _motion_cross(v)
    a = np.cumsum(s * qdd[..., None] + (vx @ s_qd[..., None])[..., 0], axis=-2)
    a[..., :3] -= g
    f = inertias @ a[..., None] - vx.swapaxes(-1, -2) @ (inertias @ v[..., None])
    carried = np.flip(np.cumsum(np.flip(f[..., 0], -2), axis=-2), -2)
    return np.einsum("...ij,...ij->...i", s, carried)


def attach_object(model: ChainModel, grasp: GraspCandidate) -> np.ndarray:
    """The 4x4 pose of the grasped object's frame in the last link's frame:
    the gripper frame hangs off the last link by the tool transform T and
    the object's frame off the gripper's by the inverse grasp transform
    g^-1, so the pose is T g^-1.  Pass it with the object to
    ``link_inertias``."""
    return model.tool @ grasp.transform.inverse().to_matrix()


def augmented_mass_matrix(model: ChainModel, q, grasp: GraspCandidate, obj: LinkSpec) -> np.ndarray:
    """Arm mass matrix plus the grasped object's inertia mapped into joint
    space: M_tot = M_arm + J^T M_obj J.

    M_obj is the object's 6x6 inertia about the operational point in world
    axes, built from the tool rotation at ``q`` and the fixed grasp
    transform.  This is the cross-check of ``attach_object``; the pipeline
    does not use it.
    """
    kin = link_frames_axes(model, q)
    r_grasp = grasp.transform.rotation.as_matrix()
    r_obj = kin.tool_rotation @ r_grasp.T  # object axes in the world
    com_x = skew(r_obj @ (obj.com - grasp.transform.translation))  # CoM offset from the tool point
    m = obj.mass
    mo_world = np.zeros((6, 6))
    mo_world[:3, :3] = m * np.eye(3)
    mo_world[:3, 3:] = -m * com_x
    mo_world[3:, :3] = m * com_x
    mo_world[3:, 3:] = r_obj @ obj.inertia @ r_obj.T - m * com_x @ com_x
    jac = kin.jacobian
    total = mass_matrix(kin, link_inertias(model, kin)) + jac.T @ mo_world @ jac
    return 0.5 * (total + total.T)


def directional_inverse_inertia(kin: KinematicState, inertias: np.ndarray, directions) -> np.ndarray:
    """Operational-space inverse inertia u^T J M^-1 J^T u along (..., 6)
    directions u, one per configuration of the state, solved as w^T M^-1 w
    with w = J^T u: no 6x6 form and no Jacobian inverse, so redundant and
    singular configurations need no special case.  A grasped object counts
    once ``inertias`` carry it (``link_inertias``, ``attach_object``).

    Raises DegenerateModelError if the joint-space mass matrix itself is
    numerically singular at any configuration of the state: its condition
    number, the ratio of the extreme eigenvalue magnitudes of the symmetric
    M, reaches ``CONDITION_LIMIT``.
    """
    m = mass_matrix(kin, inertias)
    eigs = np.abs(np.linalg.eigvalsh(m))
    if np.any(eigs.min(axis=-1) <= eigs.max(axis=-1) / CONDITION_LIMIT):
        raise DegenerateModelError(
            "joint-space mass matrix is numerically singular; "
            "check for massless distal links"
        )
    w = (kin.jacobian.swapaxes(-1, -2) @ np.asarray(directions, dtype=float)[..., None])[..., 0]
    return np.einsum("...i,...i->...", w, np.linalg.solve(m, w[..., None])[..., 0])
