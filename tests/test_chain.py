import itertools
from dataclasses import fields, replace

import numpy as np
import pytest

from postgrasp import (
    ChainModel,
    GraspCandidate,
    JointSpec,
    LinkSpec,
    Pose,
    Rotation,
    attach_object,
    forward_kinematics,
    geometric_jacobian,
    link_frames_axes,
    link_inertias,
)
from postgrasp.dynamics import motion_columns
from postgrasp.geometry import matrix_quaternion, skew

from oracles import (
    TwoRParams,
    eager_link_frames_axes,
    finite_difference_jacobian,
    pose_of,
    rotation_log,
    two_r_closed_form,
)
from conftest import make_two_r


def unit_two_r():
    return make_two_r(TwoRParams())


def prismatic_z(mass=2.0):
    return ChainModel(
        joints=(JointSpec(kind="prismatic", axis=(0, 0, 1)),),
        links=(LinkSpec(mass=mass, com=(0, 0, 0), inertia=np.zeros((3, 3))),),
    )


def mixed_chain():
    """Revolute, prismatic, revolute, on non-identity origins, base and
    tool, with default and finite limits."""
    return ChainModel(
        joints=(
            JointSpec("revolute", (0, 0, 1), Pose(Rotation.from_axis_angle((1, 0, 0), 0.3), (0, 0, 0.2))),
            JointSpec("prismatic", (0, 1, 1), Pose(Rotation.from_axis_angle((0, 1, 0), -0.7), (0.4, 0, 0)), (-0.1, 0.3)),
            JointSpec("revolute", (1, 0, 0), Pose(Rotation.identity(), (0.1, 0.2, 0.3)), (-2.0, 1.5)),
        ),
        links=(
            LinkSpec(1.5, (0.1, 0, 0), np.diag([0.01, 0.02, 0.02])),
            LinkSpec(0.8, (0, 0.05, 0), np.diag([0.03, 0.01, 0.03])),
            LinkSpec(0.3, (0, 0, 0.07), np.diag([0.002, 0.002, 0.001])),
        ),
        base_pose=Pose(Rotation.from_axis_angle((0, 0, 1), 1.1), (0.5, -0.2, 0.8)),
        tool_transform=Pose(Rotation.from_axis_angle((0, 1, 0), 0.4), (0, 0, 0.12)),
    )


class TestModelConstants:
    # the stacked constants that the pass and the dynamics read, built once
    # from the specs when the model is built

    def test_each_constant_equals_its_specs(self):
        model = mixed_chain()
        joints, links = model.joints, model.links
        for i, joint in enumerate(joints):
            origin = joint.origin.to_matrix()
            assert np.array_equal(model.fixed[i, 0], origin)
            assert np.array_equal(model.axes[i, :, 0], joint.axis)
            rotation, k = origin[:3, :3], skew(joint.axis)
            revolute = joint.kind == "revolute"
            assert np.array_equal(model.turn1[i, 0, :3, :3], rotation @ k if revolute else np.zeros((3, 3)))
            assert np.array_equal(model.turn2[i, 0, :3, :3], rotation @ k @ k if revolute else np.zeros((3, 3)))
            assert np.array_equal(model.slide[i, 0, :3, 3], np.zeros(3) if revolute else rotation @ joint.axis)
        for constant in (model.turn1, model.turn2):
            assert not constant[:, :, 3].any() and not constant[:, :, :3, 3].any()
        assert not model.slide[:, :, :, :3].any() and not model.slide[:, :, 3].any()
        assert model.revolute.tolist() == [[1.0], [0.0], [1.0]]
        assert model.prismatic.tolist() == [[0.0], [1.0], [0.0]]
        assert model.lower.tolist() == [-np.inf, -0.1, -2.0]
        assert model.upper.tolist() == [np.inf, 0.3, 1.5]
        assert np.array_equal(model.base, model.base_pose.to_matrix())
        assert np.array_equal(model.tool, model.tool_transform.to_matrix())
        assert model.masses.tolist() == [link.mass for link in links]
        assert np.array_equal(model.coms, np.stack([link.com for link in links]))
        assert np.array_equal(model.inertias, np.stack([link.inertia for link in links]))

    def test_every_constant_is_read_only_and_out_of_repr(self):
        model = mixed_chain()
        names = [f.name for f in fields(ChainModel) if not f.init]
        assert len(names) == 14
        for name in names:
            with pytest.raises(ValueError):
                getattr(model, name)[...] = 0.0
            assert f"{name}=" not in repr(model)

    def test_replace_rebuilds_every_constant(self):
        model = mixed_chain()
        body = LinkSpec(2.5, (0, 0, 0.1), np.diag([0.01, 0.01, 0.01]))
        heavier = replace(model, links=model.links[:-1] + (body,))
        assert heavier.masses.tolist() == [1.5, 0.8, 2.5]
        assert np.array_equal(heavier.coms[-1], body.com)
        assert model.masses.tolist() == [1.5, 0.8, 0.3]
        tool = Pose(Rotation.identity(), (0, 0, 0.3))
        longer = replace(model, tool_transform=tool)
        assert np.array_equal(longer.tool, tool.to_matrix())
        assert not np.array_equal(longer.tool, model.tool)


class TestForwardKinematics:
    def test_two_r_straight(self):
        pose = pose_of(forward_kinematics(link_frames_axes(unit_two_r(), [0.0, 0.0])))
        assert np.abs(pose.translation - np.array([2.0, 0.0, 0.0])).max() <= 1e-12
        assert np.linalg.norm(rotation_log(pose.rotation)) <= 1e-12

    def test_two_r_first_joint_quarter_turn(self):
        pose = pose_of(forward_kinematics(link_frames_axes(unit_two_r(), [np.pi / 2, 0.0])))
        assert np.abs(pose.translation - np.array([0.0, 2.0, 0.0])).max() <= 1e-12

    def test_two_r_matches_closed_form(self, two_r_params, two_r_model, rng):
        for _ in range(200):
            q = rng.uniform(-np.pi, np.pi, 2)
            oracle = two_r_closed_form(two_r_params, q)
            pose = pose_of(forward_kinematics(link_frames_axes(two_r_model, q)))
            assert np.abs(pose.translation - oracle["tip"]).max() <= 1e-12
            expected = Rotation.from_axis_angle((0.0, 0.0, 1.0), oracle["angle"])
            assert np.linalg.norm(rotation_log(pose.rotation.inverse() * expected)) <= 1e-9

    def test_prismatic_translates_along_axis(self):
        model = prismatic_z()
        pose = pose_of(forward_kinematics(link_frames_axes(model, [0.3])))
        assert np.abs(pose.translation - np.array([0.0, 0.0, 0.3])).max() <= 1e-15

    def test_base_pose_offsets_everything(self, rng):
        base = Pose(Rotation.from_axis_angle((0.0, 0.0, 1.0), 0.7), np.array([0.1, 0.2, 0.3]))
        model = ChainModel(
            joints=unit_two_r().joints,
            links=unit_two_r().links,
            base_pose=base,
            tool_transform=unit_two_r().tool_transform,
        )
        q = rng.uniform(-1, 1, 2)
        expected = base.compose(pose_of(forward_kinematics(link_frames_axes(unit_two_r(), q))))
        got = pose_of(forward_kinematics(link_frames_axes(model, q)))
        assert np.abs(got.translation - expected.translation).max() <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            forward_kinematics(link_frames_axes(unit_two_r(), [0.1]))


def _shepperd_branch(m) -> str:
    """Which component Shepperd's method solves for first."""
    (m00, _, _), (_, m11, _), (_, _, m22) = m.tolist()
    if m00 + m11 + m22 >= max(m00, m11, m22):
        return "w"
    if m00 >= m11 and m00 >= m22:
        return "x"
    return "y" if m11 >= m22 else "z"


def _signed_permutation_rotations():
    """The 24 rotations that map axes to signed axes, each with every sign
    pattern on its six zero entries: 1,536 matrices of exact signed zeros,
    half turns among them."""
    out = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            m = np.zeros((3, 3))
            m[range(3), perm] = signs
            if np.linalg.det(m) < 0.0:
                continue
            zeros = np.argwhere(m == 0.0)
            for zero_signs in itertools.product((0.0, -0.0), repeat=len(zeros)):
                signed = m.copy()
                signed[tuple(zeros.T)] = zero_signs
                out.append(signed)
    return out


class TestForwardKinematicsPose:
    """FK reads its seven floats straight off the pass: the same bits as
    the quaternion of ``Rotation(*matrix_quaternion(R))``, then p, on the
    pass's tool rotation R and position p."""

    @staticmethod
    def assert_pose_bytes(got, rotation, position):
        r = Rotation(*matrix_quaternion(np.asarray(rotation, dtype=float).tolist()))
        want = (r.w, r.x, r.y, r.z, *np.asarray(position, dtype=float).tolist())
        assert type(got) is tuple and [type(v) for v in got] == [float] * 7, got
        assert np.array(got).tobytes() == np.array(want).tobytes(), (rotation, got, want)

    def fk_on_tool(self, model, rotation, position):
        """``forward_kinematics`` on a pass whose tool frame is given."""
        kin = replace(link_frames_axes(model, np.zeros(model.n)), tool_rotation=rotation, tool_position=position)
        return forward_kinematics(kin)

    def test_arm7_passes(self, arm7, rng):
        lo, hi = arm7.lower, arm7.upper
        branches = set()
        for q in rng.uniform(lo, hi, (400, 7)):
            kin = link_frames_axes(arm7, q)
            branches.add(_shepperd_branch(kin.tool_rotation))
            self.assert_pose_bytes(forward_kinematics(link_frames_axes(arm7, q)), kin.tool_rotation, kin.tool_position)
        assert branches == {"w", "x", "y", "z"}

    def test_random_rotations_every_branch_and_flip(self, rng):
        model = unit_two_r()
        branches, flips = set(), 0
        for quat in rng.normal(size=(400, 4)):
            rotation = Rotation(*quat).as_matrix()
            position = rng.normal(size=3)
            branches.add(_shepperd_branch(rotation))
            flips += matrix_quaternion(rotation.tolist())[0] < 0.0
            got = self.fk_on_tool(model, rotation, position)
            self.assert_pose_bytes(got, rotation, position)
        assert branches == {"w", "x", "y", "z"}
        assert flips > 0  # a raw quaternion with w < 0, flipped by the normalisation

    def test_signed_zeros(self):
        model = unit_two_r()
        position = np.array([0.0, -0.0, 1.0])
        signs = set()
        for rotation in _signed_permutation_rotations():
            got = self.fk_on_tool(model, rotation, position)
            self.assert_pose_bytes(got, rotation, position)
            quat = np.array(got[:4])
            signs.update(np.signbit(quat[quat == 0.0]).tolist())
        assert signs == {False, True}  # both signed zeros reach the quaternion

    def test_seven_floats_of_the_pass(self, arm7):
        kin = link_frames_axes(arm7, Q7)
        self.assert_pose_bytes(forward_kinematics(link_frames_axes(arm7, Q7)), kin.tool_rotation, kin.tool_position)


class TestGeometricJacobian:
    def test_two_r_straight_config(self):
        jac = geometric_jacobian(link_frames_axes(unit_two_r(), [0.0, 0.0]))
        assert np.abs(jac[0] - np.array([0.0, 0.0])).max() <= 1e-12
        assert np.abs(jac[1] - np.array([2.0, 1.0])).max() <= 1e-12
        assert np.abs(jac[5] - np.array([1.0, 1.0])).max() <= 1e-12

    def test_matches_closed_form(self, two_r_params, two_r_model, rng):
        for _ in range(100):
            q = rng.uniform(-np.pi, np.pi, 2)
            assert np.abs(
                geometric_jacobian(link_frames_axes(two_r_model, q)) - two_r_closed_form(two_r_params, q)["J"]
            ).max() <= 1e-12

    def test_prismatic_column_has_no_angular_part(self):
        jac = geometric_jacobian(link_frames_axes(prismatic_z(), [0.2]))
        assert np.abs(jac[3:, 0]).max() == 0.0
        assert np.abs(jac[:3, 0] - np.array([0, 0, 1.0])).max() <= 1e-15

    def test_shape(self, arm7):
        assert geometric_jacobian(link_frames_axes(arm7, np.zeros(7))).shape == (6, 7)

    def test_jacobian_is_read_only(self, arm7):
        jac = geometric_jacobian(link_frames_axes(arm7, np.zeros(7)))
        with pytest.raises(ValueError):
            jac[0, 0] = 1.0

    def test_finite_difference_check(self, arm7, rng):
        # linear rows against FD of the tool position, angular rows against
        # FD of the rotation log
        def tool_pos(q):
            return forward_kinematics(link_frames_axes(arm7, q))[4:]

        for _ in range(10):
            q = rng.uniform(-1.2, 1.2, 7)
            jac = geometric_jacobian(link_frames_axes(arm7, q))
            jac_fd = finite_difference_jacobian(tool_pos, q, 1e-7)
            scale = max(1.0, np.abs(jac[:3]).max())
            assert np.abs(jac[:3] - jac_fd).max() / scale <= 1e-5

            h = 1e-7
            for k in range(7):
                dq = np.zeros(7)
                dq[k] = h
                ra = pose_of(forward_kinematics(link_frames_axes(arm7, q - dq))).rotation
                rb = pose_of(forward_kinematics(link_frames_axes(arm7, q + dq))).rotation
                omega = rotation_log(rb * ra.inverse()) / (2 * h)
                assert np.abs(jac[3:, k] - omega).max() <= 1e-5


Q7 = np.linspace(-1.2, 0.9, 7)


class TestPassInputs:
    # the pass converts and checks any form of q; forward kinematics reads
    # only a pass of one configuration

    @pytest.mark.parametrize(
        "q",
        [list(Q7), np.round(2 * Q7).astype(int), Q7.astype(np.float32), np.repeat(Q7, 2)[::2]],
        ids=["list", "int-array", "float32", "strided"],
    )
    def test_any_form_gives_the_pass_of_its_float_values(self, arm7, q):
        want = link_frames_axes(arm7, np.asarray(q, dtype=float).ravel())
        kin = link_frames_axes(arm7, q)
        pose = forward_kinematics(kin)
        assert np.array(pose[4:]).tobytes() == want.tool_position.tobytes()
        assert pose_of(pose).rotation == Rotation(*matrix_quaternion(want.tool_rotation.tolist()))
        assert geometric_jacobian(kin).tobytes() == want.jacobian.tobytes()

    @pytest.mark.parametrize(
        "q, got",
        [(np.zeros(6), 6), (np.zeros(8, dtype=int), 8), ([0.0] * 8, 8)],
        ids=["short", "long-int", "long-list"],
    )
    @pytest.mark.parametrize("function", [forward_kinematics, geometric_jacobian])
    def test_wrong_length_rejected(self, arm7, function, q, got):
        with pytest.raises(ValueError, match=f"^expected 7 joint values, got {got}$"):
            function(link_frames_axes(arm7, q))

    @pytest.mark.parametrize("q", [Q7[None, :], np.stack([Q7, -Q7])], ids=["row", "two-rows"])
    def test_forward_kinematics_refuses_a_batched_pass(self, arm7, q):
        kin = link_frames_axes(arm7, q)
        with pytest.raises(ValueError, match=rf"^forward_kinematics reads one configuration, got a batch of shape \({len(q)},\)$"):
            forward_kinematics(kin)

    def test_pass_checks_every_new_q(self, arm7):
        with pytest.raises(ValueError, match="^expected 7 joint values, got 6$"):
            link_frames_axes(arm7, np.zeros(6))

    @pytest.mark.parametrize("q", [Q7, np.stack([Q7, -Q7])], ids=["one", "two-rows"])
    def test_motion_columns_shape_and_bits(self, arm7, q):
        motion = motion_columns(link_frames_axes(arm7, q))
        assert motion.shape == np.shape(q) + (6,)
        assert motion.tobytes() == eager_link_frames_axes(arm7, q)["motion"].tobytes()


class TestToolBodyMerge:
    # a body held by the last link adds its spatial inertia to that link's
    # (``link_inertias``); the sum equals the inertia of the one body the
    # parallel-axis theorem merges the two into

    def test_zero_mass_merge_is_noop(self, arm7):
        kin = link_frames_axes(arm7, Q7)
        body = LinkSpec(mass=0.0, com=np.zeros(3), inertia=np.zeros((3, 3)))
        assert np.abs(link_inertias(arm7, kin, (body, np.eye(4))) - link_inertias(arm7, kin)).max() <= 1e-15

    def test_point_mass_merge_parallel_axis(self):
        # two point masses on a massless-frame link: combined inertia about
        # the joint CoM follows the parallel-axis theorem, hand-computed
        model = ChainModel(
            joints=(JointSpec(kind="revolute", axis=(0, 0, 1)),),
            links=(LinkSpec(mass=1.0, com=(1.0, 0, 0), inertia=np.zeros((3, 3))),),
            tool_transform=Pose(Rotation.identity(), (2.0, 0.0, 0.0)),
        )
        frame = attach_object(model, GraspCandidate("g", Pose.identity()))
        body = (LinkSpec(1.0, np.zeros(3), np.zeros((3, 3))), frame)
        # two unit masses at +-0.5 from the common CoM at 1.5: Izz = 2 * 0.25
        merged = replace(model, links=(LinkSpec(mass=2.0, com=(1.5, 0, 0), inertia=np.diag([0.0, 0.5, 0.5])),))
        for q in (0.0, 0.7, -2.0):
            kin = link_frames_axes(model, [q])
            # entries up to 5 kg m^2 (Izz about the joint), so 1e-15 of that
            assert np.abs(link_inertias(model, kin, body) - link_inertias(merged, kin)).max() <= 5e-15

    def test_point_masses_merge_to_reduced_mass_inertia(self, rng):
        # oracle: parallel-axis theorem for two point masses a distance d
        # apart, I = m1 m2 / (m1 + m2) (|d|^2 I3 - d d^T) about their CoM
        for _ in range(20):
            m1, m2 = rng.uniform(0.1, 3.0, 2)
            c1 = rng.uniform(-0.5, 0.5, 3)
            tool = Pose(
                Rotation.from_axis_angle(rng.normal(size=3), rng.uniform(-np.pi, np.pi)),
                rng.uniform(-0.5, 0.5, 3),
            )
            model = ChainModel(
                joints=(JointSpec(kind="revolute", axis=(0, 0, 1)),),
                links=(LinkSpec(mass=m1, com=c1, inertia=np.zeros((3, 3))),),
                tool_transform=tool,
            )
            # the object's CoM sits at the inverse grasp's translation
            c2_tool = rng.uniform(-0.5, 0.5, 3)
            grasp = GraspCandidate("g", Pose(Rotation.identity(), -c2_tool))
            body = (LinkSpec(m2, np.zeros(3), np.zeros((3, 3))), attach_object(model, grasp))
            c2 = tool.apply(c2_tool)
            d = c2 - c1
            expected = m1 * m2 / (m1 + m2) * (float(d @ d) * np.eye(3) - np.outer(d, d))
            merged = replace(model, links=(LinkSpec(m1 + m2, (m1 * c1 + m2 * c2) / (m1 + m2), expected),))
            kin = link_frames_axes(model, rng.uniform(-np.pi, np.pi, 1))
            assert np.abs(link_inertias(model, kin, body) - link_inertias(merged, kin)).max() <= 1e-12


class TestValidation:
    def test_joint_axis_zero_rejected(self):
        with pytest.raises(ValueError):
            JointSpec(kind="revolute", axis=(0, 0, 0))

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            JointSpec(kind="spherical", axis=(0, 0, 1))

    def test_bad_limits_rejected(self):
        with pytest.raises(ValueError):
            JointSpec(kind="revolute", axis=(0, 0, 1), limits=(1.0, -1.0))

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            LinkSpec(mass=-0.1, com=np.zeros(3), inertia=np.zeros((3, 3)))

    def test_asymmetric_inertia_rejected(self):
        bad = np.zeros((3, 3))
        bad[0, 1] = 0.2
        with pytest.raises(ValueError):
            LinkSpec(mass=1.0, com=np.zeros(3), inertia=bad)

    def test_triangle_inequality_violation_rejected(self):
        with pytest.raises(ValueError):
            LinkSpec(mass=1.0, com=np.zeros(3), inertia=np.diag([0.1, 0.1, 0.5]))

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            ChainModel(joints=(), links=())

    def test_link_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ChainModel(
                joints=(JointSpec(kind="revolute", axis=(0, 0, 1)),),
                links=(),
            )
