"""SE(3) primitives: unit-quaternion rotations, rigid poses, spatial
inertias, and the 6x6 velocity transform used to re-express spatial
inertias between frames.

Conventions
-----------
Spatial velocities (twists, as 6-vectors) are ordered ``(linear; angular)``
throughout the package.  The velocity transform of a pose ``T = (R, t)`` is

    E(T) = [ R   skew(t) @ R ]
           [ 0         R     ]

so that for a rigid body ``twist_B = E(T_BA) @ twist_A`` where ``T_BA`` is
the pose of frame A expressed in frame B (i.e. ``p_B = R p_A + t``).  This
block layout is one of the two standard adjoint conventions; it is stated
here explicitly because everything in :mod:`postgrasp.dynamics` depends on
it being used consistently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def skew(v) -> np.ndarray:
    """Cross-product matrix: ``skew(v) @ u == np.cross(v, u)``."""
    x, y, z = np.asarray(v, dtype=float)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def _vee(m: np.ndarray) -> np.ndarray:
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


@dataclass(frozen=True)
class Rotation:
    """Unit quaternion (w, x, y, z), canonicalized so that w >= 0.

    Every constructor and composition renormalizes, so the unit-norm
    invariant holds to machine precision regardless of how many rotations
    are chained.
    """

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        n = math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)
        if n < 1e-12:
            raise ValueError("quaternion has (near-)zero norm")
        s = 1.0 / n
        if self.w < 0.0:
            s = -s
        object.__setattr__(self, "w", self.w * s)
        object.__setattr__(self, "x", self.x * s)
        object.__setattr__(self, "y", self.y * s)
        object.__setattr__(self, "z", self.z * s)

    @classmethod
    def identity(cls) -> "Rotation":
        return cls(1.0, 0.0, 0.0, 0.0)

    @classmethod
    def from_quat(cls, q) -> "Rotation":
        w, x, y, z = np.asarray(q, dtype=float)
        return cls(w, x, y, z)

    @classmethod
    def from_axis_angle(cls, axis, angle: float) -> "Rotation":
        a = np.asarray(axis, dtype=float)
        n = np.linalg.norm(a)
        if n < 1e-12:
            raise ValueError("rotation axis has zero norm")
        a = a / n
        half = 0.5 * float(angle)
        s = math.sin(half)
        return cls(math.cos(half), a[0] * s, a[1] * s, a[2] * s)

    @classmethod
    def from_matrix(cls, m) -> "Rotation":
        """Quaternion of a rotation matrix by Shepperd's method: solve for
        the largest of |w|, |x|, |y|, |z| first, so the square root and the
        division stay well conditioned at every angle."""
        (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = np.asarray(m, dtype=float).tolist()
        trace = m00 + m11 + m22
        if trace >= max(m00, m11, m22):
            r = math.sqrt(1.0 + trace)  # 2|w|
            s = 0.5 / r
            return cls(0.5 * r, (m21 - m12) * s, (m02 - m20) * s, (m10 - m01) * s)
        if m00 >= m11 and m00 >= m22:
            r = math.sqrt(1.0 + m00 - m11 - m22)  # 2|x|
            s = 0.5 / r
            return cls((m21 - m12) * s, 0.5 * r, (m01 + m10) * s, (m02 + m20) * s)
        if m11 >= m22:
            r = math.sqrt(1.0 - m00 + m11 - m22)  # 2|y|
            s = 0.5 / r
            return cls((m02 - m20) * s, (m01 + m10) * s, 0.5 * r, (m12 + m21) * s)
        r = math.sqrt(1.0 - m00 - m11 + m22)  # 2|z|
        s = 0.5 / r
        return cls((m10 - m01) * s, (m02 + m20) * s, (m12 + m21) * s, 0.5 * r)

    @classmethod
    def rot_x(cls, angle: float) -> "Rotation":
        return cls.from_axis_angle((1.0, 0.0, 0.0), angle)

    @classmethod
    def rot_y(cls, angle: float) -> "Rotation":
        return cls.from_axis_angle((0.0, 1.0, 0.0), angle)

    @classmethod
    def rot_z(cls, angle: float) -> "Rotation":
        return cls.from_axis_angle((0.0, 0.0, 1.0), angle)

    @property
    def quat(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])

    def as_matrix(self) -> np.ndarray:
        w, x, y, z = self.w, self.x, self.y, self.z
        return np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ]
        )

    def apply(self, v) -> np.ndarray:
        """Rotate a 3-vector."""
        return self.as_matrix() @ np.asarray(v, dtype=float)

    def inverse(self) -> "Rotation":
        return Rotation(self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other: "Rotation") -> "Rotation":
        w1, x1, y1, z1 = self.w, self.x, self.y, self.z
        w2, x2, y2, z2 = other.w, other.x, other.y, other.z
        return Rotation(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    def log(self) -> np.ndarray:
        """Rotation vector (axis * angle), angle in [0, pi]."""
        v = np.array([self.x, self.y, self.z])
        s = np.linalg.norm(v)
        if s < 1e-9:
            # small angle: 2*atan2(s, w)/s -> 2/w with w ~ 1
            return 2.0 * v
        angle = 2.0 * math.atan2(s, self.w)
        return (angle / s) * v

    def angle_to(self, other: "Rotation") -> float:
        """Geodesic distance in radians."""
        return float(np.linalg.norm((self.inverse() * other).log()))

    def slerp(self, other: "Rotation", u: float) -> "Rotation":
        """Spherical interpolation from self (u=0) to other (u=1)."""
        q0 = self.quat
        q1 = other.quat
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
        return Rotation.from_quat(q)


@dataclass(frozen=True, eq=False)
class Pose:
    """Rigid transform: rotation plus translation in meters.

    ``Pose`` maps coordinates of its (child) frame into the parent frame:
    ``p_parent = R p_child + t``.
    """

    rotation: Rotation
    translation: np.ndarray

    def __post_init__(self):
        t = np.array(self.translation, dtype=float).reshape(3)
        t.flags.writeable = False
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "Pose":
        return cls(Rotation.identity(), np.zeros(3))

    @classmethod
    def from_translation(cls, t) -> "Pose":
        return cls(Rotation.identity(), np.asarray(t, dtype=float))

    @classmethod
    def from_rotation(cls, r: Rotation) -> "Pose":
        return cls(r, np.zeros(3))

    def compose(self, other: "Pose") -> "Pose":
        """Chain transforms: (self · other), other hanging off self's frame."""
        return Pose(
            self.rotation * other.rotation,
            self.translation + self.rotation.apply(other.translation),
        )

    def inverse(self) -> "Pose":
        rinv = self.rotation.inverse()
        return Pose(rinv, -rinv.apply(self.translation))

    def apply(self, p) -> np.ndarray:
        """Map a point from this pose's frame into the parent frame."""
        return self.rotation.apply(p) + self.translation

    def to_matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation.as_matrix()
        m[:3, 3] = self.translation
        return m


def velocity_transform(pose: Pose) -> np.ndarray:
    """6x6 matrix E with twist_B = E @ twist_A for a rigid body.

    ``pose`` is the pose of frame A expressed in frame B.  See the module
    docstring for the block layout.
    """
    r = pose.rotation.as_matrix()
    e = np.zeros((6, 6))
    e[:3, :3] = r
    e[:3, 3:] = skew(pose.translation) @ r
    e[3:, 3:] = r
    return e


@dataclass(frozen=True, eq=False)
class SpatialInertia:
    """6x6 rigid-body inertia for (linear; angular) twists.

    At the body's center of mass with no offset this is
    ``blockdiag(m I3, I_com)``; after :func:`transform_spatial_inertia` the
    off-diagonal mass-offset coupling blocks appear.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float).reshape(6, 6)
        scale = max(1.0, float(np.abs(m).max()))
        if np.abs(m - m.T).max() > 1e-9 * scale:
            raise ValueError("spatial inertia matrix must be symmetric")
        m = _symmetrize(m)
        if np.linalg.eigvalsh(m)[0] < -1e-9 * scale:
            raise ValueError("spatial inertia matrix must be positive semidefinite")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @classmethod
    def zero(cls) -> "SpatialInertia":
        return cls(np.zeros((6, 6)))

    @classmethod
    def point_mass(cls, mass: float) -> "SpatialInertia":
        return cls.from_mass_inertia(mass, np.zeros((3, 3)))

    @classmethod
    def from_mass_inertia(cls, mass: float, inertia_com) -> "SpatialInertia":
        """Block-diagonal inertia at the center of mass."""
        if mass < 0.0:
            raise ValueError("mass must be non-negative")
        m = np.zeros((6, 6))
        m[:3, :3] = mass * np.eye(3)
        m[3:, 3:] = np.asarray(inertia_com, dtype=float)
        return cls(m)

    @classmethod
    def from_mass_com_inertia(cls, mass: float, com, inertia_com) -> "SpatialInertia":
        """Inertia of a body whose CoM sits at ``com`` in the reference frame."""
        if mass < 0.0:
            raise ValueError("mass must be non-negative")
        c = np.asarray(com, dtype=float)
        sc = skew(c)
        m = np.zeros((6, 6))
        m[:3, :3] = mass * np.eye(3)
        m[:3, 3:] = -mass * sc
        m[3:, :3] = mass * sc
        m[3:, 3:] = np.asarray(inertia_com, dtype=float) + mass * (sc @ sc.T)
        return cls(m)

    def to_mass_com_inertia(self) -> tuple[float, np.ndarray, np.ndarray]:
        """Decompose into (mass, com, inertia about com).

        Only valid for rigid-body inertias (translational block m*I3);
        raises ValueError otherwise.
        """
        m = self.matrix
        mass = float(np.trace(m[:3, :3]) / 3.0)
        tol = 1e-6 * max(1.0, mass)
        if np.abs(m[:3, :3] - mass * np.eye(3)).max() > tol:
            raise ValueError("translational block is not a scaled identity")
        if mass < 1e-12:
            return 0.0, np.zeros(3), m[3:, 3:].copy()
        sc = -m[:3, 3:] / mass
        com = _vee(0.5 * (sc - sc.T))
        sc = skew(com)
        inertia = m[3:, 3:] - mass * (sc @ sc.T)
        return mass, com, inertia


def transform_spatial_inertia(inertia: SpatialInertia, pose: Pose) -> SpatialInertia:
    """Congruence transform E^-T M E^-1 re-expressing a spatial inertia.

    ``inertia`` is valid for twists expressed in frame A; ``pose`` is the
    pose of frame A expressed in frame B; the result is valid for twists
    expressed in frame B.  Kinetic energy 0.5 u^T M u is invariant under
    the change of frame.
    """
    e_inv = velocity_transform(pose.inverse())
    return SpatialInertia(_symmetrize(e_inv.T @ inertia.matrix @ e_inv))
