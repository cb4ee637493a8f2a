"""Serial kinematic chains: joint/link description and the one kinematic
pass per configuration.

The chain is described URDF-style: each joint carries a fixed origin pose
(parent link frame to joint frame) plus a motion axis, and the link frame
coincides with the joint frame after the joint motion is applied.

``link_frames_axes(model, q)`` is the only place link frames are built.  It
returns a frozen ``KinematicState``: link rotations and origins, the
operational point's rotation and position, the world-frame Jacobian and
the world joint axes; the joint motion columns, which only the dynamics
read, are derived on first read.  ``q`` may carry leading batch axes,
``(..., n)``, so a whole joint path is one call.  The model is the
constant half of Pinocchio's model/data split (Carpentier et al., SII
2019): a ``ChainModel`` holds its specs and, stacked once when it is built,
the read-only arrays that the pass and the dynamics read; the pass's
``KinematicState`` is the data of one configuration or batch.

``forward_kinematics`` and ``geometric_jacobian`` take one configuration
each and share a one-entry memo of the last pass, keyed on the model object
and the bytes of ``q``: DLS asks for the pose at each new iterate and then
for the Jacobian at the accepted one, so the memo saves a second pass per
iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import Pose, matrix_quaternion, skew, unit_quaternion

_JOINT_KINDS = ("revolute", "prismatic")
# (a x b)_i = a_j b_k - a_k b_j, (i, j, k) cyclic
_CYCLE_J = np.array([1, 2, 0])
_CYCLE_K = np.array([2, 0, 1])


def validate_inertia_tensor(inertia) -> np.ndarray:
    """Check symmetry, positive semidefiniteness and the triangle
    inequalities of a 3x3 inertia tensor; returns a symmetrized copy."""
    m = np.array(inertia, dtype=float).reshape(3, 3)
    scale = max(1.0, float(np.abs(m).max()))
    if np.abs(m - m.T).max() > 1e-9 * scale:
        raise ValueError("inertia tensor must be symmetric")
    m = 0.5 * (m + m.T)
    eigs = np.linalg.eigvalsh(m)
    if eigs[0] < -1e-9 * scale:
        raise ValueError("inertia tensor must be positive semidefinite")
    if eigs[0] + eigs[1] < eigs[2] - 1e-9 * scale:
        raise ValueError("inertia tensor violates the principal-moment triangle inequality")
    return m


@dataclass(frozen=True, eq=False)
class JointSpec:
    """One joint: kind, motion axis in the joint frame, fixed origin pose
    and position limits (rad or m)."""

    kind: str
    axis: np.ndarray
    origin: Pose = Pose.identity()
    limits: tuple[float, float] = (-math.inf, math.inf)

    def __post_init__(self):
        if self.kind not in _JOINT_KINDS:
            raise ValueError(f"joint kind must be one of {_JOINT_KINDS}, got {self.kind!r}")
        a = np.array(self.axis, dtype=float).reshape(3)
        n = np.linalg.norm(a)
        if n < 1e-12:
            raise ValueError("joint axis has zero norm")
        a = a / n
        a.flags.writeable = False
        object.__setattr__(self, "axis", a)
        lo, hi = float(self.limits[0]), float(self.limits[1])
        if not lo < hi:
            raise ValueError(f"joint limits must satisfy min < max, got ({lo}, {hi})")
        object.__setattr__(self, "limits", (lo, hi))


@dataclass(frozen=True, eq=False)
class LinkSpec:
    """Rigid-body parameters of one body, a link or the grasped object:
    mass, CoM and inertia about the CoM, expressed in the body's frame."""

    mass: float
    com: np.ndarray
    inertia: np.ndarray

    def __post_init__(self):
        if self.mass < 0.0:
            raise ValueError(f"mass must be non-negative, got {self.mass}")
        c = np.array(self.com, dtype=float).reshape(3)
        c.flags.writeable = False
        object.__setattr__(self, "com", c)
        m = validate_inertia_tensor(self.inertia)
        m.flags.writeable = False
        object.__setattr__(self, "inertia", m)


@dataclass(frozen=True, eq=False)
class ChainModel:
    """Serial chain: per-joint specs and link bodies, a base pose in the
    world frame, and the fixed transform from the last link frame to the
    operational point.

    The specs' constants are stacked into read-only arrays once, when the
    model is built, in the shapes the kinematic pass and the dynamics read
    them; ``dataclasses.replace`` builds them anew for the new specs."""

    joints: tuple[JointSpec, ...]
    links: tuple[LinkSpec, ...]
    base_pose: Pose = Pose.identity()
    tool_transform: Pose = Pose.identity()
    name: str = ""
    # the stacked constants, in the shapes the pass broadcasts over a batch
    fixed: np.ndarray = field(init=False, repr=False)  # (n, 1, 4, 4) joint origin transforms
    turn1: np.ndarray = field(init=False, repr=False)  # (n, 1, 4, 4) R_o K if revolute, else zero
    turn2: np.ndarray = field(init=False, repr=False)  # (n, 1, 4, 4) R_o K^2 if revolute, else zero
    slide: np.ndarray = field(init=False, repr=False)  # (n, 1, 4, 4) R_o a in column 3 if prismatic
    axes: np.ndarray = field(init=False, repr=False)  # (n, 3, 1) joint axes in the link frames
    revolute: np.ndarray = field(init=False, repr=False)  # (n, 1) 1.0 if revolute, else 0.0
    prismatic: np.ndarray = field(init=False, repr=False)  # (n, 1) 1.0 if prismatic, else 0.0
    lower: np.ndarray = field(init=False, repr=False)  # (n,) joint limits
    upper: np.ndarray = field(init=False, repr=False)  # (n,)
    base: np.ndarray = field(init=False, repr=False)  # (4, 4) base pose
    tool: np.ndarray = field(init=False, repr=False)  # (4, 4) tool transform
    masses: np.ndarray = field(init=False, repr=False)  # (n,)
    coms: np.ndarray = field(init=False, repr=False)  # (n, 3) link frame
    inertias: np.ndarray = field(init=False, repr=False)  # (n, 3, 3) about the CoM, link frame

    def __post_init__(self):
        object.__setattr__(self, "joints", tuple(self.joints))
        object.__setattr__(self, "links", tuple(self.links))
        joints, links, n = self.joints, self.links, self.n
        if n < 1:
            raise ValueError("chain needs at least one joint")
        if n != len(links):
            raise ValueError("need exactly one link per joint")
        fixed = np.stack([j.origin.to_matrix() for j in joints])
        turn1 = np.zeros((n, 4, 4))
        turn2 = np.zeros((n, 4, 4))
        slide = np.zeros((n, 4, 4))
        axes = np.stack([j.axis for j in joints])
        for i, k in enumerate(skew(axes)):
            turn1[i, :3, :3] = fixed[i, :3, :3] @ k
            turn2[i, :3, :3] = fixed[i, :3, :3] @ k @ k
            slide[i, :3, 3] = fixed[i, :3, :3] @ axes[i]
        revolute = np.array([[j.kind == "revolute"] for j in joints], dtype=float)
        prismatic = 1.0 - revolute
        lower, upper = np.array([j.limits for j in joints]).T.copy()
        constants = dict(
            fixed=fixed[:, None],
            turn1=(turn1 * revolute[:, :, None])[:, None],
            turn2=(turn2 * revolute[:, :, None])[:, None],
            slide=(slide * prismatic[:, :, None])[:, None],
            axes=axes[:, :, None],
            revolute=revolute,
            prismatic=prismatic,
            lower=lower,
            upper=upper,
            base=self.base_pose.to_matrix(),
            tool=self.tool_transform.to_matrix(),
            masses=np.array([link.mass for link in links]),
            coms=np.stack([link.com for link in links]),
            inertias=np.stack([link.inertia for link in links]),
        )
        for name, value in constants.items():
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return len(self.joints)


def _check_q(model: ChainModel, q) -> np.ndarray:
    """Joint values as a float array of shape (..., n); a flat sequence is
    one configuration."""
    q = np.asarray(q, dtype=float)
    if q.ndim < 2:
        q = q.reshape(-1)
    if q.shape[-1] != model.n:
        raise ValueError(f"expected {model.n} joint values, got {q.shape[-1]}")
    return q


@dataclass(frozen=True, eq=False)
class KinematicState:
    """One forward pass of a chain, in world coordinates, at one
    configuration or at a batch of them (every field then carries the
    batch's leading axes).  The arrays are read-only.

    Everything downstream of q reads it: forward kinematics, the Jacobian,
    the composite-rigid-body mass matrix and recursive Newton-Euler.  It
    depends on the joints, base and tool only, not on the link bodies, so
    a grasped object enters the dynamics through the link inertias built on
    it (``dynamics.link_inertias``), with no second pass.

    The fields are built by the pass; ``motion``, which only the dynamics
    read, is derived from them on first read and then kept.
    """

    rotations: np.ndarray  # (..., n, 3, 3) link-frame rotations
    origins: np.ndarray  # (..., n, 3) link-frame origins
    tool_rotation: np.ndarray  # (..., 3, 3) operational-point rotation
    tool_position: np.ndarray  # (..., 3) operational-point position
    jacobian: np.ndarray  # (..., 6, n) geometric Jacobian of the operational point
    spin: np.ndarray  # (..., n, 3) world axes of the revolute joints, zero rows elsewhere
    slide: np.ndarray  # (..., n, 3) world axes of the prismatic joints, zero rows elsewhere

    def __post_init__(self):
        for value in vars(self).values():
            value.setflags(write=False)  # cheaper than ``flags.writeable``

    @property
    def n(self) -> int:
        return self.origins.shape[-2]

    @cached_property
    def motion(self) -> np.ndarray:
        """(..., n, 6) joint motion columns referred to the world origin:
        (p x z; z) for a revolute joint, (z; 0) for a prismatic one."""
        motion = np.concatenate([_cross(self.origins, self.spin) + self.slide, self.spin], axis=-1)
        motion.setflags(write=False)
        return motion


def _cross(a, b) -> np.ndarray:
    """Cross product over the last axis of broadcastable (..., 3) arrays,
    a_j b_k - a_k b_j on the cyclic index arrays; several times cheaper
    than ``np.cross`` on the small arrays used here."""
    return a.take(_CYCLE_J, -1) * b.take(_CYCLE_K, -1) - a.take(_CYCLE_K, -1) * b.take(_CYCLE_J, -1)


def link_frames_axes(model: ChainModel, q) -> KinematicState:
    """The one kinematic pass: every link frame and joint axis, the
    operational point and its Jacobian, at q of shape (..., n).

    Each joint's local transform is its fixed origin times the joint motion,
    the rotation by Rodrigues' formula R_o (I + sin(q) K + (1 - cos(q)) K^2)
    with K the skew matrix of the axis; the link frames are the running
    product of the local transforms as 4x4 homogeneous matrices, one batched
    product per joint.  The model's joint constants carry their joint-kind
    masks already, so the local transform is three products summed in place.
    """
    q = _check_q(model, q)
    n = q.shape[-1]
    batch = q.shape[:-1]
    # joint-major (n, m): each joint's transforms are contiguous for matmul
    qj = q.reshape(-1, n).T
    local = model.fixed + np.sin(qj)[..., None, None] * model.turn1
    local += (1.0 - np.cos(qj))[..., None, None] * model.turn2
    local += qj[..., None, None] * model.slide
    frames = np.empty_like(local)
    t = model.base
    for joint, frame in zip(local, frames):
        t = np.matmul(t, joint, out=frame)
    tool = (t @ model.tool).reshape(batch + (4, 4))
    frames = frames.swapaxes(0, 1).reshape(batch + (n, 4, 4))
    rotations = frames[..., :3, :3]
    origins = frames[..., :3, 3]
    p_op = tool[..., :3, 3]
    axes = np.matmul(rotations, model.axes)[..., 0]
    spin = axes * model.revolute
    slide = axes * model.prismatic
    # revolute: z x (p_op - p) at the tool
    lever = _cross(origins - p_op[..., None, :], spin)
    jacobian = np.concatenate(
        [(lever + slide).swapaxes(-1, -2), spin.swapaxes(-1, -2)], axis=-2
    )
    return KinematicState(rotations, origins, tool[..., :3, :3], p_op, jacobian, spin, slide)


# (model, q bytes, KinematicState) of the last single-configuration pass
_last_pass = (None, b"", None)
_FLOAT = np.dtype(float)


def _pass_at(model: ChainModel, q) -> KinematicState:
    """``link_frames_axes`` at one configuration, reused while the model
    object and the bytes of q repeat.  A float64 (n,) array, what IK always
    passes, is used as it is; any other q is checked and flattened first."""
    global _last_pass
    if type(q) is not np.ndarray or q.dtype is not _FLOAT or q.shape != (model.n,):
        q = _check_q(model, np.ravel(q))
    key = q.tobytes()
    last_model, last_key, kin = _last_pass
    if last_model is not model or last_key != key:
        kin = link_frames_axes(model, q)
        _last_pass = (model, key, kin)
    return kin


def forward_kinematics(model: ChainModel, q) -> tuple:
    """World pose of the operational point at one configuration, in the
    form of a DLS target: seven floats, the unit quaternion (w, x, y, z),
    then the translation, read straight off the pass."""
    kin = _pass_at(model, q)
    quaternion = unit_quaternion(*matrix_quaternion(kin.tool_rotation.tolist()))
    return quaternion + tuple(kin.tool_position.tolist())


def geometric_jacobian(model: ChainModel, q) -> np.ndarray:
    """6xn Jacobian at one configuration (read-only): world-frame (linear;
    angular) twist of the operational point per unit joint velocity.

    Columns follow the classic construction: revolute joint i contributes
    (z_i x (p - p_i); z_i), a prismatic joint contributes (z_i; 0).
    """
    return _pass_at(model, q).jacobian
