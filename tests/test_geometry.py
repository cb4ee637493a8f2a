import numpy as np
import pytest

from postgrasp import Pose, Rotation
from postgrasp.geometry import skew

from oracles import levi_civita_skew


def random_rotation(rng) -> Rotation:
    return Rotation.from_axis_angle(rng.normal(size=3), rng.uniform(-np.pi, np.pi))


def random_pose(rng) -> Pose:
    return Pose(random_rotation(rng), rng.uniform(-1.0, 1.0, 3))


class TestRotation:
    def test_constructor_normalizes(self, rng):
        for _ in range(200):
            q = rng.normal(size=4) * rng.uniform(0.1, 10)
            r = Rotation.from_quat(q)
            assert abs(np.linalg.norm(r.quat) - 1.0) <= 1e-12

    def test_composition_keeps_unit_norm(self, rng):
        r = Rotation.identity()
        for _ in range(500):
            r = r * random_rotation(rng)
            assert abs(np.linalg.norm(r.quat) - 1.0) <= 1e-12

    def test_canonical_w_nonnegative(self, rng):
        for _ in range(100):
            assert random_rotation(rng).w >= 0.0

    def test_matrix_is_special_orthogonal(self, rng):
        for _ in range(100):
            m = random_rotation(rng).as_matrix()
            assert np.abs(m @ m.T - np.eye(3)).max() <= 1e-12
            assert abs(np.linalg.det(m) - 1.0) <= 1e-12

    def test_log_inverts_axis_angle(self, rng):
        for _ in range(100):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(1e-8, np.pi - 1e-6)
            vec = Rotation.from_axis_angle(axis, angle).log()
            assert np.abs(vec - axis * angle).max() <= 1e-8 or np.abs(vec + axis * angle).max() <= 1e-8

    def test_slerp_endpoints_and_midpoint(self, rng):
        a = random_rotation(rng)
        b = random_rotation(rng)
        assert a.slerp(b, 0.0).angle_to(a) <= 1e-9
        assert a.slerp(b, 1.0).angle_to(b) <= 1e-9
        mid = a.slerp(b, 0.5)
        assert abs(mid.angle_to(a) - mid.angle_to(b)) <= 1e-9

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            Rotation(0.0, 0.0, 0.0, 0.0)

    def test_from_matrix_round_trip(self, rng):
        for _ in range(500):
            r = Rotation.from_quat(rng.normal(size=4))
            back = Rotation.from_matrix(r.as_matrix())
            assert back.w >= 0.0
            assert np.abs(back.quat - r.quat).max() <= 1e-14

    @pytest.mark.parametrize("axis", np.eye(3).tolist())
    @pytest.mark.parametrize("offset", [-1e-6, -1e-9, 1e-9, 1e-6])
    def test_from_matrix_near_half_turn(self, axis, offset):
        # trace near -1: w is tiny and one of x, y, z carries the rotation,
        # so the branches solving for x, y or z first are the ones exercised
        r = Rotation.from_axis_angle(axis, np.pi + offset)
        back = Rotation.from_matrix(r.as_matrix())
        assert back.w >= 0.0
        assert np.abs(back.quat - r.quat).max() <= 1e-14


class TestPose:
    def test_compose_identity(self, rng):
        p = random_pose(rng)
        q = Pose.identity().compose(p)
        assert np.abs(q.translation - p.translation).max() <= 1e-15
        assert q.rotation.angle_to(p.rotation) <= 1e-15

    def test_compose_rotz_then_translate(self):
        # rotating frame by 90 deg about z carries the unit-x offset to unit-y
        p = Pose.from_rotation(Rotation.rot_z(np.pi / 2)).compose(
            Pose.from_translation((1.0, 0.0, 0.0))
        )
        assert np.abs(p.translation - np.array([0.0, 1.0, 0.0])).max() <= 1e-12
        assert p.rotation.angle_to(Rotation.rot_z(np.pi / 2)) <= 1e-12

    def test_compose_matches_matrix_product(self, rng):
        for _ in range(100):
            a = random_pose(rng)
            b = random_pose(rng)
            assert np.abs(a.compose(b).to_matrix() - a.to_matrix() @ b.to_matrix()).max() <= 1e-12

    def test_compose_associative(self, rng):
        a, b, c = (random_pose(rng) for _ in range(3))
        left = a.compose(b).compose(c)
        right = a.compose(b.compose(c))
        assert np.abs(left.to_matrix() - right.to_matrix()).max() <= 1e-12

    def test_inverse_composes_to_identity(self, rng):
        for _ in range(100):
            p = random_pose(rng)
            m = p.compose(p.inverse()).to_matrix()
            assert np.abs(m - np.eye(4)).max() <= 1e-12

    def test_apply_matches_matrix(self, rng):
        p = random_pose(rng)
        x = rng.normal(size=3)
        expected = (p.to_matrix() @ np.append(x, 1.0))[:3]
        assert np.abs(p.apply(x) - expected).max() <= 1e-12


def test_skew_is_the_batched_cross_product(rng):
    v = rng.normal(size=(4, 2, 3))
    u = rng.normal(size=(4, 2, 3))
    assert skew(v).shape == (4, 2, 3, 3)
    assert np.abs((skew(v) @ u[..., None])[..., 0] - np.cross(v, u)).max() <= 1e-15
    assert np.array_equal(skew(v[1, 0]), skew(v)[1, 0])


def test_skew_equals_the_levi_civita_contraction(rng):
    # values only: a zero component may come out as -0.0 on one side
    v = rng.normal(size=(100, 7, 3))
    v[::3, :, 1] = 0.0
    assert np.all(skew(v) == levi_civita_skew(v))
    assert np.all(skew(v[0, 0]) == levi_civita_skew(v[0, 0]))
