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
Dynamics Algorithms*, 2008, ch. 5-6).

A rigid body is given by its mass, its CoM and its 3x3 inertia about the
CoM, from the task file (``task.RigidObject``) and the robot file
(``chain.LinkSpec``) through to ``link_inertias``, the one place that reads
a model's bodies: it turns them into each link's 6x6 world-origin inertia
on a kinematic pass.  The recursions take that pass and those inertias and
no model, so the inertial parameters are their explicit, linear input.  A
grasped object is one more body on the last link: ``attach_object`` gives
its mass, CoM and inertia in that link's frame, through the tool transform
and the inverse grasp, and ``link_inertias`` builds its spatial inertia by
the same formula as a link's and adds it to the last link's, as spatial
inertias referred to one point add (Featherstone ch. 2).  Those link
inertias, built once per grasp (``metrics.evaluate_grasp``), serve RNEA for
the torque objective and CRBA for the effective-mass objective
(``operational_mass_inverse``).  ``augmented_mass_matrix`` is the
independent cross-check: the arm's mass matrix plus the object's 6x6
inertia about the operational point pulled into joint space by the
Jacobian, M + J^T M_obj J.  The two routes agree to machine precision.
"""

from __future__ import annotations

import numpy as np

from .chain import ChainModel, KinematicState, LinkSpec, link_frames_axes
from .geometry import skew
from .task import GraspCandidate, RigidObject

GRAVITY_DEFAULT = np.array([0.0, 0.0, -9.81])

CONDITION_LIMIT = 1e12


class DegenerateModelError(ValueError):
    """Joint-space mass matrix is numerically singular."""


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.swapaxes(-1, -2))


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


def link_inertias(model: ChainModel, kin: KinematicState, attached: LinkSpec | None = None) -> np.ndarray:
    """(..., n, 6, 6) inertias of ``model``'s links on the pass ``kin``,
    referred to the world origin, world axes, read-only: the input of
    ``mass_matrix``, ``inverse_dynamics`` and ``operational_mass_inverse``.

    ``attached`` is a body rigidly held by the last link, given in its
    frame (``attach_object``); its inertia is added to that link's."""
    if kin.n != model.n:
        raise ValueError(f"kinematic state has {kin.n} joints, model has {model.n}")
    c = model._constants
    out = _spatial_inertias(kin.rotations, kin.origins, c.masses, c.coms, c.inertias)
    if attached is not None:
        out[..., -1, :, :] += _spatial_inertias(
            kin.rotations[..., -1, :, :], kin.origins[..., -1, :], attached.mass, attached.com, attached.inertia
        )
    out.flags.writeable = False
    return out


def _check_inertias(kin: KinematicState, inertias: np.ndarray) -> None:
    if inertias.shape != kin.motion.shape + (6,):
        raise ValueError(
            f"link inertias of shape {inertias.shape} do not fit the kinematic "
            f"state's {kin.motion.shape + (6,)}"
        )


def mass_matrix(kin: KinematicState, inertias: np.ndarray) -> np.ndarray:
    """Joint-space mass matrix by the composite-rigid-body method:
    M_ij = s_i . C_j s_j for i <= j, with C_j the inertia of links j..n-1
    (``inertias`` is ``link_inertias`` on ``kin``)."""
    _check_inertias(kin, inertias)
    s = kin.motion
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
    and the body ``attach_object`` returns.
    """
    _check_inertias(kin, inertias)
    qd = np.asarray(qdot, dtype=float)
    qdd = np.asarray(qddot, dtype=float)
    batch = kin.motion.shape[:-1]
    if qd.shape != batch or qdd.shape != batch:
        raise ValueError(
            f"joint rates of shapes {qd.shape} and {qdd.shape} do not match "
            f"the kinematic state's {batch}"
        )
    g = np.asarray(gravity, dtype=float).reshape(3)
    s = kin.motion
    s_qd = s * qd[..., None]
    v = np.cumsum(s_qd, axis=-2)
    vx = _motion_cross(v)
    a = np.cumsum(s * qdd[..., None] + (vx @ s_qd[..., None])[..., 0], axis=-2)
    a[..., :3] -= g
    f = inertias @ a[..., None] - vx.swapaxes(-1, -2) @ (inertias @ v[..., None])
    carried = np.flip(np.cumsum(np.flip(f[..., 0], -2), axis=-2), -2)
    return np.einsum("...ij,...ij->...i", s, carried)


def attach_object(model: ChainModel, grasp: GraspCandidate, obj: RigidObject) -> LinkSpec:
    """The grasped object as a body on the last link, in that link's frame.

    The object's pose in the gripper frame is the inverse grasp transform
    g, and the gripper frame hangs off the last link by the tool transform
    T: its CoM sits at T applied to g's translation and its inertia about
    the CoM is R I R^T with R = R_T R_g.  Pass it to ``link_inertias``."""
    g = grasp.transform.inverse()
    tool = model.tool_transform
    r = tool.rotation.as_matrix() @ g.rotation.as_matrix()
    return LinkSpec(obj.mass, tool.apply(g.translation), r @ obj.inertia @ r.T)


def augmented_mass_matrix(
    model: ChainModel, q, grasp: GraspCandidate, obj: RigidObject
) -> np.ndarray:
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
    com_x = skew(-r_obj @ grasp.transform.translation)  # CoM offset from the tool point
    m = obj.mass
    mo_world = np.zeros((6, 6))
    mo_world[:3, :3] = m * np.eye(3)
    mo_world[:3, 3:] = -m * com_x
    mo_world[3:, :3] = m * com_x
    mo_world[3:, 3:] = r_obj @ obj.inertia @ r_obj.T - m * com_x @ com_x
    jac = kin.jacobian
    return _symmetrize(mass_matrix(kin, link_inertias(model, kin)) + jac.T @ mo_world @ jac)


def operational_mass_inverse(kin: KinematicState, inertias: np.ndarray) -> np.ndarray:
    """Operational-space inverse inertia J M^-1 J^T at the operational point.

    A grasped object counts once ``inertias`` carry the body
    ``attach_object`` returns.  Valid for redundant chains; at a singular
    configuration the result is rank-deficient but still well defined.
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
    jac = kin.jacobian
    return _symmetrize(jac @ np.linalg.solve(m, jac.swapaxes(-1, -2)))
