import math

import numpy as np
import pytest

from postgrasp import (
    GraspCandidate,
    Pose,
    Rotation,
    RigidObject,
    TaskTrajectory,
    generate_grasp_sweep,
    gripper_trajectory,
    path_parameter,
    resample,
)
from postgrasp.geometry import quaternion_product


def translation_task(points, total_time=1.0):
    times = np.linspace(0.0, total_time, len(points))
    return TaskTrajectory(tuple(Pose.from_translation(p) for p in points), times)


class TestTaskTrajectory:
    def test_requires_two_waypoints(self):
        with pytest.raises(ValueError):
            TaskTrajectory((Pose.identity(),), np.array([0.0]))

    def test_requires_start_at_zero(self):
        with pytest.raises(ValueError):
            TaskTrajectory((Pose.identity(), Pose.identity()), np.array([0.5, 1.0]))

    def test_pose_arrays_are_read_only_stacks_of_the_poses(self, rng):
        poses = tuple(Pose(Rotation.from_quat(rng.normal(size=4)), rng.normal(size=3)) for _ in range(5))
        task = TaskTrajectory(poses, np.linspace(0.0, 1.0, 5))
        assert task.quaternions.tobytes() == np.array([p.rotation.quat for p in poses]).tobytes()
        assert task.rotation_matrices.tobytes() == np.array([p.rotation.as_matrix() for p in poses]).tobytes()
        assert task.translations.tobytes() == np.array([p.translation for p in poses]).tobytes()
        for array in (task.quaternions, task.rotation_matrices, task.translations):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_requires_increasing_times(self):
        with pytest.raises(ValueError):
            translation_task([(0, 0, 0), (1, 0, 0)], total_time=0.0)


class TestGripperTrajectory:
    def test_identity_grasp(self):
        task = translation_task([(0, 0, 0), (0.1, 0, 0), (0.2, 0, 0)])
        out = gripper_trajectory(task, GraspCandidate("g", Pose.identity()))
        for got, want in zip(out.poses, task.poses):
            assert np.abs(got.translation - want.translation).max() <= 1e-15

    def test_pure_translation_with_offset(self):
        # gripper path is the object path shifted by the constant R_o-rotated
        # grasp offset
        offset = np.array([0.0, 0.22, 0.0])
        rot = Rotation.rot_z(0.6)
        task = TaskTrajectory(
            tuple(Pose(rot, np.array([0.1 * i, 0.0, 0.0])) for i in range(4)),
            np.linspace(0.0, 1.0, 4),
        )
        out = gripper_trajectory(task, GraspCandidate("g", Pose.from_translation(offset)))
        shift = rot.apply(offset)
        for got, obj_pose in zip(out.poses, task.poses):
            assert np.abs(got.translation - (obj_pose.translation + shift)).max() <= 1e-12

    def test_rotation_sweeps_quarter_arc(self):
        # object rotates 90 deg about z; a grasp offset of 0.1 m traces a
        # quarter circle of radius 0.1
        angles = np.linspace(0.0, np.pi / 2, 10)
        task = TaskTrajectory(
            tuple(Pose(Rotation.rot_z(a), np.zeros(3)) for a in angles),
            np.linspace(0.0, 1.0, 10),
        )
        grasp = GraspCandidate("g", Pose.from_translation((0.1, 0.0, 0.0)))
        out = gripper_trajectory(task, grasp)
        for a, pose in zip(angles, out.poses):
            expected = np.array([0.1 * np.cos(a), 0.1 * np.sin(a), 0.0])
            assert np.abs(pose.translation - expected).max() <= 1e-12
        assert np.abs(out.poses[-1].translation - np.array([0.0, 0.1, 0.0])).max() <= 1e-12

    def test_rigidity_preserves_segment_lengths(self, rng):
        rot = Rotation.rot_y(0.4)
        pts = np.cumsum(rng.uniform(-0.1, 0.1, (6, 3)), axis=0)
        task = TaskTrajectory(
            tuple(Pose(rot, p) for p in pts), np.linspace(0.0, 1.0, 6)
        )
        grasp = GraspCandidate("g", Pose.from_translation(rng.uniform(-0.2, 0.2, 3)))
        out = gripper_trajectory(task, grasp)
        for i in range(5):
            obj_step = np.linalg.norm(pts[i + 1] - pts[i])
            grip_step = np.linalg.norm(out.poses[i + 1].translation - out.poses[i].translation)
            assert abs(obj_step - grip_step) <= 1e-12


    def test_matches_pose_compose_bit_for_bit(self, rng):
        # composition on the task's arrays gives per waypoint exactly what
        # Pose.compose gives, including where the raw quaternion product
        # has w < 0 and Rotation flips its sign
        poses = tuple(Pose(Rotation.from_quat(rng.normal(size=4)), rng.normal(size=3)) for _ in range(64))
        task = TaskTrajectory(poses, np.linspace(0.0, 1.0, 64))
        flips = 0
        for _ in range(8):
            grasp = GraspCandidate("g", Pose(Rotation.from_quat(rng.normal(size=4)), rng.normal(size=3)))
            g = grasp.transform.rotation
            flips += int(np.sum(quaternion_product(task.quaternions.T, (g.w, g.x, g.y, g.z))[0] < 0.0))
            out = gripper_trajectory(task, grasp)
            want = [p.compose(grasp.transform) for p in poses]
            assert out.quaternions.tobytes() == np.array([p.rotation.quat for p in want]).tobytes()
            assert out.translations.tobytes() == np.array([p.translation for p in want]).tobytes()
            for got, expected in zip(out.poses, want):
                assert got.rotation.quat.tobytes() == expected.rotation.quat.tobytes()
                assert got.translation.tobytes() == expected.translation.tobytes()
        assert flips > 0


    def test_raw_product_normalised_with_pow(self):
        # a raw product whose libm-pow squares differ from x * x: composed
        # on arrays, it is normalised exactly as Rotation normalises it
        raw = (0.60040144057608, -0.30084820291487846, -0.7060734954993589, 1.105694907482355)
        # an identity object rotation makes the raw product the grasp's
        # quaternion itself, held unnormalised
        task = translation_task([(0.0, 0.0, 0.0), (0.1, 0.0, 0.0), (0.2, 0.05, 0.0)])
        grasp = GraspCandidate("g", Pose(Rotation.from_unit(*raw), np.array([0.0, 0.1, 0.0])))
        assert quaternion_product(task.quaternions[0], raw) == raw
        out = gripper_trajectory(task, grasp)
        want = [p.compose(grasp.transform) for p in task.poses]
        assert out.quaternions.tobytes() == np.array([p.rotation.quat for p in want]).tobytes()
        for got, expected in zip(out.poses, want):
            assert got.rotation.quat.tobytes() == expected.rotation.quat.tobytes()
        if any(v**2 != v * v for v in raw):
            # where pow and x * x differ, squaring by multiplication (what
            # numpy's ``**2`` on an array does) gives other bits
            w, x, y, z = raw
            squared = np.array(raw) * (1.0 / math.sqrt(w * w + x * x + y * y + z * z))
            assert squared.tobytes() != out.quaternions[0].tobytes()


class TestPathParameter:
    def test_uniform_line(self):
        task = translation_task([(0.1 * i, 0, 0) for i in range(5)])
        assert np.abs(path_parameter(task) - np.array([0, 0.25, 0.5, 0.75, 1.0])).max() <= 1e-15

    def test_l_shaped_path_corner(self):
        task = translation_task([(0, 0, 0), (0.3, 0, 0), (0.3, 0.1, 0)])
        s = path_parameter(task)
        assert np.abs(s - np.array([0.0, 0.75, 1.0])).max() <= 1e-15

    def test_stationary_degenerates_to_uniform(self):
        task = translation_task([(0.2, 0, 0)] * 4)
        assert np.abs(path_parameter(task) - np.linspace(0, 1, 4)).max() <= 1e-15

    def test_monotone_with_endpoints(self, rng):
        pts = np.cumsum(rng.uniform(-0.1, 0.1, (8, 3)), axis=0)
        s = path_parameter(translation_task(list(pts)))
        assert s[0] == 0.0 and s[-1] == 1.0
        assert np.all(np.diff(s) >= 0.0)


class TestGraspSweep:
    def test_reference_protocol_offsets(self):
        # ten grasps spanning -0.22..0.22 m along y on the top face
        start = Pose.from_translation((0.0, -0.22, 0.1))
        end = Pose.from_translation((0.0, 0.22, 0.1))
        sweep = generate_grasp_sweep(start, end, 10)
        ys = [g.transform.translation[1] for g in sweep]
        assert abs(ys[0] - (-0.22)) <= 1e-15
        assert abs(ys[1] - (-0.17111111111111111)) <= 1e-12
        assert abs(ys[-1] - 0.22) <= 1e-15
        assert np.abs(np.diff(ys) - 0.44 / 9).max() <= 1e-12
        assert [g.id for g in sweep] == [f"g{i:02d}" for i in range(1, 11)]

    def test_count_two_gives_endpoints(self):
        sweep = generate_grasp_sweep(
            Pose.from_translation((0, 0, 0)), Pose.from_translation((1, 0, 0)), 2
        )
        assert np.abs(sweep[0].transform.translation - np.zeros(3)).max() == 0.0
        assert np.abs(sweep[1].transform.translation - np.array([1.0, 0, 0])).max() == 0.0

    def test_degenerate_sweep(self):
        p = Pose.from_translation((0.1, 0.2, 0.3))
        sweep = generate_grasp_sweep(p, p, 4)
        for g in sweep:
            assert np.abs(g.transform.translation - p.translation).max() <= 1e-15

    def test_count_below_two_rejected(self):
        with pytest.raises(ValueError):
            generate_grasp_sweep(Pose.identity(), Pose.identity(), 1)

    def test_shared_orientation(self):
        rot = Rotation.rot_x(np.pi)
        sweep = generate_grasp_sweep(
            Pose(rot, np.array([0, -0.2, 0.1])), Pose(rot, np.array([0, 0.2, 0.1])), 5
        )
        for g in sweep:
            assert g.transform.rotation.angle_to(rot) <= 1e-12


class TestResample:
    def test_endpoints_preserved(self):
        task = translation_task([(0, 0, 0), (0.2, 0, 0), (0.2, 0.3, 0)], total_time=3.0)
        out = resample(task, 25)
        assert len(out) == 25
        assert np.abs(out.poses[0].translation - task.poses[0].translation).max() <= 1e-15
        assert np.abs(out.poses[-1].translation - task.poses[-1].translation).max() <= 1e-12
        assert np.abs(out.times - np.linspace(0, 3, 25)).max() <= 1e-12

    def test_linear_translation_interpolation(self):
        task = translation_task([(0, 0, 0), (1.0, 0, 0)], total_time=2.0)
        out = resample(task, 5)
        assert np.abs(
            np.array([p.translation[0] for p in out.poses]) - np.array([0, 0.25, 0.5, 0.75, 1.0])
        ).max() <= 1e-12

    def test_slerp_rotation_midpoint(self):
        task = TaskTrajectory(
            (Pose.identity(), Pose.from_rotation(Rotation.rot_z(np.pi / 2))),
            np.array([0.0, 1.0]),
        )
        out = resample(task, 3)
        assert out.poses[1].rotation.angle_to(Rotation.rot_z(np.pi / 4)) <= 1e-12

    def test_count_below_two_rejected(self):
        task = translation_task([(0, 0, 0), (1, 0, 0)])
        with pytest.raises(ValueError):
            resample(task, 1)


class TestRigidObject:
    def test_positive_mass_required(self):
        with pytest.raises(ValueError):
            RigidObject(mass=0.0, inertia=np.eye(3))

    def test_triangle_inequality_enforced(self):
        with pytest.raises(ValueError):
            RigidObject(mass=1.0, inertia=np.diag([0.1, 0.1, 0.30001]))

    def test_grasp_id_required(self):
        with pytest.raises(ValueError):
            GraspCandidate("", Pose.identity())
