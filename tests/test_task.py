import math

import numpy as np
import pytest

from postgrasp import (
    GraspCandidate,
    Pose,
    Rotation,
    TaskTrajectory,
    generate_grasp_sweep,
    gripper_trajectory,
    load_task,
    path_parameter,
    reference_task_path,
    resample,
)
from postgrasp.geometry import quaternion_matrices, quaternion_product

from oracles import pose_of, resample_poses, rotation_log, trajectory_of, trajectory_poses


def translation_task(points, total_time=1.0):
    times = np.linspace(0.0, total_time, len(points))
    return TaskTrajectory(np.tile(Rotation.identity().quat, (len(points), 1)), points, times)


# a quaternion, not normalised, one of whose libm-pow squares is not x * x
POW_SQUARES_DIFFER = (0.60040144057608, -0.30084820291487846, -0.7060734954993589, 1.105694907482355)
# a unit quaternion that ``unit_quaternion`` leaves as it is, but that a
# normalisation squaring by x * x instead of libm ``pow`` moves
POW_FIXED_POINT = (0.8399874755625039, -0.43841034873956514, -0.08630495791256212, 0.30784551524408477)


def assert_same_arrays(got: TaskTrajectory, want: TaskTrajectory):
    for name in ("times", "quaternions", "translations"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


class TestTaskTrajectory:
    def test_requires_two_waypoints(self):
        with pytest.raises(ValueError, match="at least two waypoints"):
            TaskTrajectory([Rotation.identity().quat], np.zeros((1, 3)), np.array([0.0]))

    def test_requires_start_at_zero(self):
        with pytest.raises(ValueError, match="start at t = 0"):
            TaskTrajectory(np.tile(Rotation.identity().quat, (2, 1)), np.zeros((2, 3)), np.array([0.5, 1.0]))

    @pytest.mark.parametrize("lengths", [(3, 2, 2), (2, 3, 2), (2, 2, 3)])
    def test_requires_equal_lengths(self, lengths):
        m_quat, m_trans, m_time = lengths
        with pytest.raises(ValueError, match="quaternions, translations and times must have equal length"):
            TaskTrajectory(
                np.tile(Rotation.identity().quat, (m_quat, 1)), np.zeros((m_trans, 3)), np.arange(m_time, dtype=float)
            )

    def test_arrays_are_read_only_copies(self, rng):
        rotations = [Rotation(*rng.normal(size=4)) for _ in range(5)]
        quats = np.array([r.quat for r in rotations])
        translations = rng.normal(size=(5, 3))
        times = np.linspace(0.0, 1.0, 5)
        task = TaskTrajectory(quats, translations, times)
        assert task.quaternions.tobytes() == quats.tobytes()
        assert task.translations.tobytes() == translations.tobytes()
        assert task.times.tobytes() == times.tobytes()
        assert quaternion_matrices(task.quaternions).tobytes() == np.array([r.as_matrix() for r in rotations]).tobytes()
        quats[0] = translations[0, 0] = times[1] = 0.0
        assert task.quaternions[0].tobytes() == rotations[0].quat.tobytes()
        assert task.translations[0, 0] != 0.0 and task.times[1] == 0.25
        for array in (task.quaternions, task.translations, task.times):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_requires_increasing_times(self):
        with pytest.raises(ValueError):
            translation_task([(0, 0, 0), (1, 0, 0)], total_time=0.0)

    def test_requires_unit_quaternions(self):
        # accepted, this one gave a rotation matrix of determinant 5
        with pytest.raises(ValueError, match="^quaternions must have unit norm$"):
            TaskTrajectory([[1.0, 1.0, 0.0, 0.0]] * 2, np.zeros((2, 3)), [0.0, 1.0])

    @pytest.mark.parametrize(
        "name, index, value",
        [("quaternions", (1, 0), math.nan), ("translations", (0, 2), math.inf), ("times", 1, math.nan)],
    )
    def test_requires_finite_values(self, name, index, value):
        # the order checks are false on NaN, so they alone let these through
        data = {"quaternions": np.tile([1.0, 0.0, 0.0, 0.0], (3, 1)), "translations": np.zeros((3, 3))}
        data["times"] = np.arange(3.0)
        data[name][index] = value
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            TaskTrajectory(**data)


class TestGripperTrajectory:
    def test_identity_grasp(self):
        task = translation_task([(0, 0, 0), (0.1, 0, 0), (0.2, 0, 0)])
        out = gripper_trajectory(task, GraspCandidate("g", Pose.identity()))
        assert np.abs(out.translations - task.translations).max() <= 1e-15

    def test_pure_translation_with_offset(self):
        # gripper path is the object path shifted by the constant R_o-rotated
        # grasp offset
        offset = np.array([0.0, 0.22, 0.0])
        rot = Rotation.from_axis_angle((0.0, 0.0, 1.0), 0.6)
        task = TaskTrajectory([rot.quat] * 4, [(0.1 * i, 0.0, 0.0) for i in range(4)], np.linspace(0.0, 1.0, 4))
        out = gripper_trajectory(task, GraspCandidate("g", Pose(Rotation.identity(), offset)))
        shift = rot.apply(offset)
        assert np.abs(out.translations - (task.translations + shift)).max() <= 1e-12

    def test_rotation_sweeps_quarter_arc(self):
        # object rotates 90 deg about z; a grasp offset of 0.1 m traces a
        # quarter circle of radius 0.1
        angles = np.linspace(0.0, np.pi / 2, 10)
        task = TaskTrajectory(
            [Rotation.from_axis_angle((0.0, 0.0, 1.0), a).quat for a in angles],
            np.zeros((10, 3)),
            np.linspace(0.0, 1.0, 10),
        )
        grasp = GraspCandidate("g", Pose(Rotation.identity(), (0.1, 0.0, 0.0)))
        out = gripper_trajectory(task, grasp)
        expected = np.stack([0.1 * np.cos(angles), 0.1 * np.sin(angles), np.zeros(10)], axis=1)
        assert np.abs(out.translations - expected).max() <= 1e-12
        assert np.abs(out.translations[-1] - np.array([0.0, 0.1, 0.0])).max() <= 1e-12

    def test_rigidity_preserves_segment_lengths(self, rng):
        rot = Rotation.from_axis_angle((0.0, 1.0, 0.0), 0.4)
        pts = np.cumsum(rng.uniform(-0.1, 0.1, (6, 3)), axis=0)
        task = TaskTrajectory([rot.quat] * 6, pts, np.linspace(0.0, 1.0, 6))
        grasp = GraspCandidate("g", Pose(Rotation.identity(), rng.uniform(-0.2, 0.2, 3)))
        out = gripper_trajectory(task, grasp)
        for i in range(5):
            obj_step = np.linalg.norm(pts[i + 1] - pts[i])
            grip_step = np.linalg.norm(out.translations[i + 1] - out.translations[i])
            assert abs(obj_step - grip_step) <= 1e-12


    def test_matches_pose_compose_bit_for_bit(self, rng):
        # composition on the task's arrays gives per waypoint exactly what
        # Pose.compose gives, including where the raw quaternion product
        # has w < 0 and Rotation flips its sign
        poses = tuple(Pose(Rotation(*rng.normal(size=4)), rng.normal(size=3)) for _ in range(64))
        task = trajectory_of(poses, np.linspace(0.0, 1.0, 64))
        flips = 0
        for _ in range(8):
            grasp = GraspCandidate("g", Pose(Rotation(*rng.normal(size=4)), rng.normal(size=3)))
            g = grasp.transform.rotation
            flips += int(np.sum(quaternion_product(task.quaternions.T, (g.w, g.x, g.y, g.z))[0] < 0.0))
            out = gripper_trajectory(task, grasp)
            want = [p.compose(grasp.transform) for p in poses]
            assert out.quaternions.tobytes() == np.array([p.rotation.quat for p in want]).tobytes()
            assert out.translations.tobytes() == np.array([p.translation for p in want]).tobytes()
            for got, expected in zip(trajectory_poses(out), want):
                assert got.rotation.quat.tobytes() == expected.rotation.quat.tobytes()
                assert got.translation.tobytes() == expected.translation.tobytes()
        assert flips > 0


    def test_raw_product_normalised_with_pow(self):
        # a raw product whose libm-pow squares differ from x * x: composed
        # on arrays, it is normalised exactly as Rotation normalises it
        raw = POW_SQUARES_DIFFER
        # an identity object rotation makes the raw product the grasp's
        # quaternion itself, held unnormalised
        task = translation_task([(0.0, 0.0, 0.0), (0.1, 0.0, 0.0), (0.2, 0.05, 0.0)])
        grasp = GraspCandidate("g", pose_of((*raw, 0.0, 0.1, 0.0)))
        assert quaternion_product(task.quaternions[0], raw) == raw
        out = gripper_trajectory(task, grasp)
        want = [p.compose(grasp.transform) for p in trajectory_poses(task)]
        assert out.quaternions.tobytes() == np.array([p.rotation.quat for p in want]).tobytes()
        for got, expected in zip(trajectory_poses(out), want):
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
        start = Pose(Rotation.identity(), (0.0, -0.22, 0.1))
        end = Pose(Rotation.identity(), (0.0, 0.22, 0.1))
        sweep = generate_grasp_sweep(start, end, 10)
        ys = [g.transform.translation[1] for g in sweep]
        assert abs(ys[0] - (-0.22)) <= 1e-15
        assert abs(ys[1] - (-0.17111111111111111)) <= 1e-12
        assert abs(ys[-1] - 0.22) <= 1e-15
        assert np.abs(np.diff(ys) - 0.44 / 9).max() <= 1e-12
        assert [g.id for g in sweep] == [f"g{i:02d}" for i in range(1, 11)]

    def test_count_two_gives_endpoints(self):
        sweep = generate_grasp_sweep(
            Pose(Rotation.identity(), (0, 0, 0)), Pose(Rotation.identity(), (1, 0, 0)), 2
        )
        assert np.abs(sweep[0].transform.translation - np.zeros(3)).max() == 0.0
        assert np.abs(sweep[1].transform.translation - np.array([1.0, 0, 0])).max() == 0.0

    def test_degenerate_sweep(self):
        p = Pose(Rotation.identity(), (0.1, 0.2, 0.3))
        sweep = generate_grasp_sweep(p, p, 4)
        for g in sweep:
            assert np.abs(g.transform.translation - p.translation).max() <= 1e-15

    def test_count_below_two_rejected(self):
        with pytest.raises(ValueError):
            generate_grasp_sweep(Pose.identity(), Pose.identity(), 1)

    def test_shared_orientation(self):
        rot = Rotation.from_axis_angle((1.0, 0.0, 0.0), np.pi)
        sweep = generate_grasp_sweep(
            Pose(rot, np.array([0, -0.2, 0.1])), Pose(rot, np.array([0, 0.2, 0.1])), 5
        )
        for g in sweep:
            assert np.linalg.norm(rotation_log(g.transform.rotation.inverse() * rot)) <= 1e-12

    def test_shipped_grasp_lists_are_sweeps(self):
        # each shipped task's ten grasps are, bit for bit, the sweep from its
        # first grasp to its last: the file's ``sweep`` form of its ``grasps``
        for name in ("task1", "task2", "task3"):
            grasps = load_task(reference_task_path(name)).grasps
            sweep = generate_grasp_sweep(grasps[0].transform, grasps[-1].transform, 10)
            assert [g.id for g in sweep] == [g.id for g in grasps], name
            for want, got in zip(grasps, sweep):
                assert got.transform.translation.tobytes() == want.transform.translation.tobytes(), (name, want.id)
                assert got.transform.rotation.quat.tolist() == want.transform.rotation.quat.tolist(), (name, want.id)


class TestResample:
    def test_endpoints_preserved(self):
        task = translation_task([(0, 0, 0), (0.2, 0, 0), (0.2, 0.3, 0)], total_time=3.0)
        out = resample(task, 25)
        assert len(out) == 25
        assert np.abs(out.translations[0] - task.translations[0]).max() <= 1e-15
        assert np.abs(out.translations[-1] - task.translations[-1]).max() <= 1e-12
        assert np.abs(out.times - np.linspace(0, 3, 25)).max() <= 1e-12

    def test_linear_translation_interpolation(self):
        task = translation_task([(0, 0, 0), (1.0, 0, 0)], total_time=2.0)
        out = resample(task, 5)
        assert np.abs(out.translations[:, 0] - np.array([0, 0.25, 0.5, 0.75, 1.0])).max() <= 1e-12

    def test_slerp_rotation_midpoint(self):
        z = (0.0, 0.0, 1.0)
        task = TaskTrajectory(
            [Rotation.identity().quat, Rotation.from_axis_angle(z, np.pi / 2).quat], np.zeros((2, 3)), [0.0, 1.0]
        )
        out = resample(task, 3)
        eighth = Rotation.from_axis_angle(z, np.pi / 4)
        assert np.linalg.norm(rotation_log(Rotation(*out.quaternions[1]).inverse() * eighth)) <= 1e-12

    def test_count_below_two_rejected(self):
        task = translation_task([(0, 0, 0), (1, 0, 0)])
        with pytest.raises(ValueError):
            resample(task, 1)

    @pytest.mark.parametrize("name", ["task1", "task2", "task3"])
    def test_shipped_tasks_match_pose_slerp_bit_for_bit(self, name):
        spec = load_task(reference_task_path(name))
        for count in (spec.resample_count, 2, 7, 137):
            assert_same_arrays(resample(spec.trajectory, count), resample_poses(spec.trajectory, count))

    def test_flip_and_small_angle_match_pose_slerp_bit_for_bit(self, rng):
        # random keyframes, some consecutive pairs on opposite hemispheres
        # (q0 . q1 < 0, slerp flips q1), two pairs equal or 1e-12 rad apart
        # (theta < 1e-9, linear blend), uneven times starting just after 0
        # (the first waypoint's fraction is clamped to 0, so it is the first
        # keyframe's quaternion normalised again; ``POW_FIXED_POINT`` there
        # shows the squaring)
        rotations = [Rotation(*rng.normal(size=4)) for _ in range(9)]
        rotations[0] = Rotation(*POW_FIXED_POINT)
        rotations[3] = rotations[2]
        rotations[6] = rotations[5] * Rotation.from_axis_angle(rng.normal(size=3), 1e-12)
        poses = tuple(Pose(r, rng.normal(size=3)) for r in rotations)
        times = np.concatenate([[5e-10], np.cumsum(rng.uniform(0.1, 1.0, 8))])
        task = trajectory_of(poses, times)
        dots = np.einsum("ij,ij->i", task.quaternions[:-1], task.quaternions[1:])
        assert np.any(dots < 0.0)
        assert sum(math.acos(min(d, 1.0)) < 1e-9 for d in dots) == 2
        for count in (2, 7, 50, 137):
            assert_same_arrays(resample(task, count), resample_poses(task, count))
        assert task.quaternions[0].tolist() == list(POW_FIXED_POINT)
        if any(v**2 != v * v for v in POW_FIXED_POINT):
            # normalised again with x * x squares, the first waypoint moves
            w, x, y, z = POW_FIXED_POINT
            squared = np.array(POW_FIXED_POINT) * (1.0 / math.sqrt(w * w + x * x + y * y + z * z))
            assert squared.tobytes() != resample(task, 2).quaternions[0].tobytes()


class TestGraspCandidate:
    def test_grasp_id_required(self):
        with pytest.raises(ValueError):
            GraspCandidate("", Pose.identity())
