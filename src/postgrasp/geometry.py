"""SE(3) primitives: unit-quaternion rotations, rigid poses, the cross
product and the cross-product matrix.  The quaternion product and the
rotation matrix are written once, on floats or arrays alike
(``quaternion_product``, ``quaternion_matrices``), and so are a
``Rotation``'s normalisation (``unit_quaternion``) and Shepperd's method
(``matrix_quaternion``), on floats; so a whole trajectory composed on
arrays, or a pose read off a kinematic pass, matches ``Rotation`` and
``Pose`` bit for bit without building one per step.

A ``Pose`` maps coordinates of its child frame into its parent frame,
``p_parent = R p_child + t``.  Spatial vectors are ordered
``(linear; angular)``.  A rigid body, a link or the grasped object, is one
``chain.LinkSpec``: mass, center of mass and the 3x3 inertia about it in
the body's frame, placed in the world by that frame's pose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# (a x b)_i = a_j b_k - a_k b_j, (i, j, k) cyclic
_CYCLE_J = np.array([1, 2, 0])
_CYCLE_K = np.array([2, 0, 1])


def cross(a, b) -> np.ndarray:
    """Cross product over the last axis of broadcastable (..., 3) arrays,
    a_j b_k - a_k b_j on the cyclic index arrays; several times cheaper
    than ``np.cross`` on the small arrays used here."""
    return a.take(_CYCLE_J, -1) * b.take(_CYCLE_K, -1) - a.take(_CYCLE_K, -1) * b.take(_CYCLE_J, -1)


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


def unit_quaternion(w, x, y, z) -> tuple:
    """(w, x, y, z) divided by its norm and flipped to w >= 0: the one
    normalisation every ``Rotation`` makes.  The squares are ``**2``, as
    written: on floats that is libm ``pow``, which is not always ``x * x``."""
    n = math.sqrt(w**2 + x**2 + y**2 + z**2)
    if n < 1e-12:
        raise ValueError("quaternion has (near-)zero norm")
    s = 1.0 / n
    if w < 0.0:
        s = -s
    return w * s, x * s, y * s, z * s


def matrix_quaternion(rows) -> tuple:
    """Quaternion (w, x, y, z), not normalised, of a rotation matrix given
    as three rows of three floats, by Shepperd's method: solve for the
    largest of |w|, |x|, |y|, |z| first, so the square root and the
    division stay well conditioned at every angle."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = rows
    trace = m00 + m11 + m22
    if trace >= max(m00, m11, m22):
        r = math.sqrt(1.0 + trace)  # 2|w|
        s = 0.5 / r
        return 0.5 * r, (m21 - m12) * s, (m02 - m20) * s, (m10 - m01) * s
    if m00 >= m11 and m00 >= m22:
        r = math.sqrt(1.0 + m00 - m11 - m22)  # 2|x|
        s = 0.5 / r
        return (m21 - m12) * s, 0.5 * r, (m01 + m10) * s, (m02 + m20) * s
    if m11 >= m22:
        r = math.sqrt(1.0 - m00 + m11 - m22)  # 2|y|
        s = 0.5 / r
        return (m02 - m20) * s, (m01 + m10) * s, 0.5 * r, (m12 + m21) * s
    r = math.sqrt(1.0 - m00 - m11 + m22)  # 2|z|
    s = 0.5 / r
    return (m10 - m01) * s, (m02 + m20) * s, (m12 + m21) * s, 0.5 * r


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
        vars(self).update(zip("wxyz", unit_quaternion(self.w, self.x, self.y, self.z)))

    @classmethod
    def identity(cls) -> "Rotation":
        return cls(1.0, 0.0, 0.0, 0.0)

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

