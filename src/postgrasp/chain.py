"""Serial kinematic chains: joint/link description, forward kinematics, and
the geometric Jacobian of the operational point.

The chain is described URDF-style: each joint carries a fixed origin pose
(parent link frame to joint frame) plus a motion axis, and the link frame
coincides with the joint frame after the joint motion is applied.  The
Jacobian maps joint velocities to the world-frame twist of the operational
point; metrics stay consistent because motion directions are expressed in
the same frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import Pose, Rotation

_JOINT_KINDS = ("revolute", "prismatic")


def validate_inertia_tensor(inertia, label: str = "inertia tensor") -> np.ndarray:
    """Check symmetry, positive semidefiniteness and the triangle
    inequalities of a 3x3 inertia tensor; returns a symmetrized copy."""
    m = np.array(inertia, dtype=float).reshape(3, 3)
    scale = max(1.0, float(np.abs(m).max()))
    if np.abs(m - m.T).max() > 1e-9 * scale:
        raise ValueError(f"{label} must be symmetric")
    m = 0.5 * (m + m.T)
    eigs = np.linalg.eigvalsh(m)
    if eigs[0] < -1e-9 * scale:
        raise ValueError(f"{label} must be positive semidefinite")
    if eigs[0] + eigs[1] < eigs[2] - 1e-9 * scale:
        raise ValueError(f"{label} violates the principal-moment triangle inequality")
    return m


@dataclass(frozen=True, eq=False)
class JointSpec:
    """One joint: kind, motion axis in the joint frame, fixed origin pose,
    position limits (rad or m) and a velocity limit."""

    kind: str
    axis: np.ndarray
    origin: Pose = Pose.identity()
    limits: tuple[float, float] = (-math.inf, math.inf)
    velocity_limit: float = math.inf

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
        if not self.velocity_limit > 0.0:
            raise ValueError("velocity limit must be positive")


@dataclass(frozen=True, eq=False)
class LinkSpec:
    """Rigid-body parameters of one link, expressed in the link frame."""

    mass: float
    com: np.ndarray
    inertia: np.ndarray

    def __post_init__(self):
        if self.mass < 0.0:
            raise ValueError(f"link mass must be non-negative, got {self.mass}")
        c = np.array(self.com, dtype=float).reshape(3)
        c.flags.writeable = False
        object.__setattr__(self, "com", c)
        m = validate_inertia_tensor(self.inertia, "link inertia tensor")
        m.flags.writeable = False
        object.__setattr__(self, "inertia", m)


@dataclass(frozen=True, eq=False)
class ChainModel:
    """Serial chain: per-joint specs and link bodies, a base pose in the
    world frame, and the fixed transform from the last link frame to the
    operational point."""

    joints: tuple[JointSpec, ...]
    links: tuple[LinkSpec, ...]
    base_pose: Pose = Pose.identity()
    tool_transform: Pose = Pose.identity()
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "joints", tuple(self.joints))
        object.__setattr__(self, "links", tuple(self.links))
        if len(self.joints) < 1:
            raise ValueError("chain needs at least one joint")
        if len(self.joints) != len(self.links):
            raise ValueError("need exactly one link per joint")

    @property
    def n(self) -> int:
        return len(self.joints)

    def limits_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.array([j.limits[0] for j in self.joints])
        hi = np.array([j.limits[1] for j in self.joints])
        return lo, hi

    def with_tool_body(self, mass: float, com, inertia) -> "ChainModel":
        """Rigidly attach an extra body, given in the tool frame, by merging
        it into the last link.  Used to augment the dynamics with a grasped
        object."""
        if mass < 0.0:
            raise ValueError("attached body mass must be non-negative")
        r_tool = self.tool_transform.rotation.as_matrix()
        c_extra = self.tool_transform.apply(np.asarray(com, dtype=float))
        i_extra = r_tool @ np.asarray(inertia, dtype=float) @ r_tool.T
        last = self.links[-1]
        merged = _merge_bodies(last.mass, last.com, last.inertia, mass, c_extra, i_extra)
        links = self.links[:-1] + (LinkSpec(*merged),)
        return replace(self, links=links)


def _merge_bodies(m1, c1, i1, m2, c2, i2):
    m = m1 + m2
    if m < 1e-12:
        return 0.0, np.zeros(3), i1 + i2
    c = (m1 * np.asarray(c1, float) + m2 * np.asarray(c2, float)) / m

    def shifted(mi, ci, ii):
        d = np.asarray(ci, float) - c
        return ii + mi * (float(d @ d) * np.eye(3) - np.outer(d, d))

    return m, c, shifted(m1, c1, i1) + shifted(m2, c2, i2)


def _check_q(model: ChainModel, q) -> np.ndarray:
    q = np.asarray(q, dtype=float).reshape(-1)
    if q.shape[0] != model.n:
        raise ValueError(f"expected {model.n} joint values, got {q.shape[0]}")
    return q


def link_frames_axes(model: ChainModel, q) -> tuple[list[Pose], list[np.ndarray]]:
    """World pose of every link frame plus the world-frame joint axes."""
    q = _check_q(model, q)
    poses: list[Pose] = []
    axes: list[np.ndarray] = []
    t = model.base_pose
    for spec, qi in zip(model.joints, q):
        x = t.compose(spec.origin)
        z = x.rotation.apply(spec.axis)
        if spec.kind == "revolute":
            t = Pose(x.rotation * Rotation.from_axis_angle(spec.axis, qi), x.translation)
        else:
            t = Pose(x.rotation, x.translation + qi * z)
        poses.append(t)
        axes.append(z)
    return poses, axes


def forward_kinematics(model: ChainModel, q) -> Pose:
    """World pose of the operational point."""
    poses, _ = link_frames_axes(model, q)
    return poses[-1].compose(model.tool_transform)


def geometric_jacobian(model: ChainModel, q) -> np.ndarray:
    """6xn Jacobian: world-frame (linear; angular) twist of the operational
    point per unit joint velocity.

    Columns follow the classic construction: revolute joint i contributes
    (z_i x (p - p_i); z_i), a prismatic joint contributes (z_i; 0).
    """
    poses, axes = link_frames_axes(model, q)
    p_op = poses[-1].compose(model.tool_transform).translation
    jac = np.zeros((6, model.n))
    for i, (spec, pose, z) in enumerate(zip(model.joints, poses, axes)):
        if spec.kind == "revolute":
            jac[:3, i] = np.cross(z, p_op - pose.translation)
            jac[3:, i] = z
        else:
            jac[:3, i] = z
    return jac
