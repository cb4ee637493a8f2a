"""SE(3) primitives: unit-quaternion rotations, rigid poses and the
cross-product matrix.  The quaternion product and the rotation matrix are
written once, on floats or arrays alike (``quaternion_product``,
``quaternion_matrices``), so a whole trajectory composed on arrays matches
``Rotation`` and ``Pose`` bit for bit.

A ``Pose`` maps coordinates of its child frame into its parent frame,
``p_parent = R p_child + t``.  Spatial vectors are ordered
``(linear; angular)``.  Rigid bodies are described by mass, center of mass
and the 3x3 inertia about it (``chain.LinkSpec``, ``task.RigidObject``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def skew(v) -> np.ndarray:
    """Cross-product matrices of (..., 3) vectors, ``skew(v) @ u == np.cross(v, u)``:
    the six off-diagonal entries filled directly, the diagonal zero."""
    v = np.asarray(v, dtype=float)
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    out = np.zeros(v.shape + (3,))
    out[..., 0, 1] = -z
    out[..., 0, 2] = y
    out[..., 1, 0] = z
    out[..., 1, 2] = -x
    out[..., 2, 0] = -y
    out[..., 2, 1] = x
    return out


def quaternion_product(a, b) -> tuple:
    """Hamilton product a b of (w, x, y, z) quadruples whose entries are
    floats or broadcastable arrays, not normalised."""
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def _matrix_entries(w, x, y, z) -> tuple:
    """The nine entries, row by row, of the rotation matrix of a unit
    quaternion (w, x, y, z) whose entries are floats or arrays."""
    return (
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    )


def quaternion_matrices(quats) -> np.ndarray:
    """Rotation matrices, (..., 3, 3) and C-contiguous, of (..., 4) unit
    quaternions (w, x, y, z)."""
    quats = np.asarray(quats, dtype=float)
    entries = _matrix_entries(*np.moveaxis(quats, -1, 0))
    return np.stack(entries, axis=-1).reshape(quats.shape[:-1] + (3, 3))


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
        return np.array(_matrix_entries(self.w, self.x, self.y, self.z)).reshape(3, 3)

    def apply(self, v) -> np.ndarray:
        """Rotate a 3-vector."""
        return self.as_matrix() @ np.asarray(v, dtype=float)

    def inverse(self) -> "Rotation":
        return Rotation(self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other: "Rotation") -> "Rotation":
        return Rotation(
            *quaternion_product((self.w, self.x, self.y, self.z), (other.w, other.x, other.y, other.z))
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
        t.setflags(write=False)
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

