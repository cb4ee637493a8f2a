import math
import warnings

import numpy as np
import pytest

from postgrasp import (
    ChainModel,
    GraspInfeasible,
    JointSpec,
    LinkSpec,
    Pose,
    Rotation,
    forward_kinematics,
    geometric_jacobian,
    gripper_trajectory,
    link_frames_axes,
    load_task,
    reference_task_path,
    resample,
    track_trajectory,
)
from postgrasp import ik
from postgrasp.ik import (
    ORIENTATION_TOLERANCE,
    POSITION_TOLERANCE,
    default_seed,
    pose_error,
)
from postgrasp.metrics import _fd_derivatives

from oracles import (
    loop_fd_derivatives,
    pose_of,
    pose_target,
    reference_dls,
    rotation_pose_error,
    solve_from_seed,
    trajectory_of,
    two_r_ik,
)


def joint_path_poses(model, qs):
    return [pose_of(forward_kinematics(link_frames_axes(model, q))) for q in qs]


class TestSolveWaypoint:
    def test_already_solved_returns_seed(self, two_r_model, rng):
        seed = rng.uniform(-1.0, 1.0, 2)
        target = forward_kinematics(link_frames_axes(two_r_model, seed))
        q, _, ok, _ = solve_from_seed(two_r_model, target, seed)
        assert ok
        assert np.array_equal(q, seed)

    def test_branch_nearest_seed(self, two_r_params, two_r_model):
        branches = two_r_ik(two_r_params, 1.0, 1.0)
        assert len(branches) == 2
        for q1, q2 in branches:
            target = forward_kinematics(link_frames_axes(two_r_model, [q1, q2]))
            seed = np.array([q1, q2]) + 0.3
            q, _, ok, _ = solve_from_seed(two_r_model, target, seed)
            assert ok
            assert np.abs(q - np.array([q1, q2])).max() <= 1e-5

    def test_tolerances_met(self, arm7, rng):
        seed = default_seed(arm7)
        q0 = rng.uniform(-1.0, 1.0, 7)
        target = forward_kinematics(link_frames_axes(arm7, q0))
        q, _, ok, _ = solve_from_seed(arm7, target, q0 + 0.15)
        assert ok
        err = pose_error(target, forward_kinematics(link_frames_axes(arm7, q)))
        assert np.linalg.norm(err[:3]) <= POSITION_TOLERANCE
        assert np.linalg.norm(err[3:]) <= ORIENTATION_TOLERANCE

    def test_out_of_reach_raises(self, two_r_model):
        target = Pose(Rotation.identity(), (3.0, 0.0, 0.0))  # beyond l1 + l2
        _, _, ok, _ = solve_from_seed(two_r_model, pose_target(target), np.array([0.3, 0.3]))
        assert not ok

    def test_converged_solves_match_reference_dls(self, arm7, two_r_model, rng):
        # the stall rule must not touch a solve that converges: same
        # iterate bit for bit, same flag
        cases = []
        for model, count in ((arm7, 40), (two_r_model, 20)):
            for _ in range(count):
                q0 = rng.uniform(-1.0, 1.0, model.n)
                seed = q0 + rng.uniform(-0.15, 0.15, model.n)
                cases.append((model, forward_kinematics(link_frames_axes(model, q0)), seed))
        for model, target, seed in cases:
            q, _, ok, _ = solve_from_seed(model, target, seed)
            q_ref, ok_ref = reference_dls(model, pose_of(target), seed)
            assert ok_ref
            assert ok == ok_ref
            assert np.array_equal(q, q_ref)

    def test_out_of_reach_stops_when_stalled(self, two_r_model, monkeypatch):
        jacobians = []

        def counting_jacobian(kin):
            jacobians.append(1)
            return geometric_jacobian(kin)

        monkeypatch.setattr("postgrasp.ik.geometric_jacobian", counting_jacobian)
        target = Pose(Rotation.identity(), (3.0, 0.0, 0.0))  # beyond l1 + l2
        _, _, ok, iterations = solve_from_seed(two_r_model, pose_target(target), np.array([0.3, 0.3]))
        assert not ok
        assert iterations == len(jacobians) < 50


class TestTrackTrajectory:
    def test_constant_trajectory_zero_derivatives(self, two_r_model):
        pose = pose_of(forward_kinematics(link_frames_axes(two_r_model, [0.4, 0.8])))
        times = np.linspace(0.0, 1.0, 8)
        traj = track_trajectory(two_r_model, trajectory_of([pose] * 8, times), np.array([0.4, 0.8]))
        velocities, accelerations = _fd_derivatives(times, traj.positions)
        assert np.abs(velocities).max() <= 1e-12
        assert np.abs(accelerations).max() <= 1e-12
        assert traj.reachable.all()

    def test_straight_line_continuity(self, two_r_params, two_r_model):
        # 0.2 m straight-line tool translation, 21 waypoints, targets taken
        # from the closed-form position-IK branch (the 2R cannot hold an
        # arbitrary fixed orientation while translating): adjacent joint
        # steps stay small (no branch jumping)
        q0 = np.array(two_r_ik(two_r_params, 1.0, 0.8)[0])
        qs = [
            np.array(min(two_r_ik(two_r_params, 1.0 + 0.2 * u, 0.8), key=lambda b: abs(b[1] - q0[1])))
            for u in np.linspace(0.0, 1.0, 21)
        ]
        poses = joint_path_poses(two_r_model, qs)
        traj = track_trajectory(two_r_model, trajectory_of(poses, np.linspace(0, 2, 21)), q0)
        assert traj.reachable.all()
        steps = np.abs(np.diff(traj.positions, axis=0)).max(axis=1)
        assert steps.max() < 0.2

    def test_carried_pose_gives_the_joint_path_of_a_fresh_pass(self, arm7, monkeypatch):
        # each waypoint starts from the previous solve's iterate, pass and
        # tool pose; a fresh pass and pose at that iterate instead must give
        # the same joint path bit for bit
        spec = load_task(reference_task_path("task1"))
        task = resample(spec.trajectory, spec.resample_count)
        grippers = [gripper_trajectory(task, g) for g in spec.grasps]
        carried = [track_trajectory(arm7, g, spec.ik_seed) for g in grippers]
        solve = ik._solve

        def fresh(model, target, q, kin, current):
            kin = link_frames_axes(model, q)
            return solve(model, target, q, kin, forward_kinematics(kin))

        monkeypatch.setattr(ik, "_solve", fresh)
        for gripper, got in zip(grippers, carried):
            want = track_trajectory(arm7, gripper, spec.ik_seed)
            assert got.positions.tobytes() == want.positions.tobytes()
            assert np.array_equal(got.reachable, want.reachable)

    def test_reconstruction_within_tolerance(self, arm7, rng):
        qs = np.linspace(rng.uniform(-0.8, 0.8, 7), rng.uniform(-0.8, 0.8, 7), 15)
        poses = joint_path_poses(arm7, qs)
        traj = track_trajectory(arm7, trajectory_of(poses, np.linspace(0, 2, 15)), qs[0] + 0.05)
        assert traj.reachable.all()
        for q, target in zip(traj.positions, poses):
            err = pose_error(pose_target(target), forward_kinematics(link_frames_axes(arm7, q)))
            assert np.linalg.norm(err[:3]) <= 10 * POSITION_TOLERANCE
            assert np.linalg.norm(err[3:]) <= 10 * ORIENTATION_TOLERANCE

    def test_seeded_continuity_bound(self, arm7, rng):
        # adjacent joint motion bounded by the task-space step through the
        # smallest observed singular value
        qs = np.linspace(rng.uniform(-0.7, 0.7, 7), rng.uniform(-0.7, 0.7, 7), 20)
        poses = joint_path_poses(arm7, qs)
        traj = track_trajectory(arm7, trajectory_of(poses, np.linspace(0, 2, 20)), qs[0])
        sigma_min = min(
            np.linalg.svd(geometric_jacobian(link_frames_axes(arm7, q)), compute_uv=False)[-1]
            for q in traj.positions
        )
        for i in range(len(poses) - 1):
            step6 = np.linalg.norm(pose_error(pose_target(poses[i + 1]), pose_target(poses[i])))
            dq = np.linalg.norm(traj.positions[i + 1] - traj.positions[i])
            assert dq <= 10.0 * step6 / sigma_min

    def test_first_waypoint_unreachable_raises(self, two_r_model):
        poses = [
            Pose(Rotation.identity(), (5.0, 0.0, 0.0)),
            Pose(Rotation.identity(), (1.0, 0.5, 0.0)),
        ]
        with pytest.raises(GraspInfeasible):
            track_trajectory(two_r_model, trajectory_of(poses, [0.0, 1.0]), np.zeros(2))

    def test_mid_trajectory_unreachable_flagged(self, two_r_model):
        # path marches straight out of the workspace: early waypoints fine,
        # later ones flagged, joint values stay finite
        q0 = np.array([0.6, 0.8])
        start = pose_of(forward_kinematics(link_frames_axes(two_r_model, q0)))
        direction = start.translation / np.linalg.norm(start.translation)
        poses = [
            Pose(start.rotation, start.translation + u * direction) for u in np.linspace(0, 1.2, 12)
        ]
        traj = track_trajectory(two_r_model, trajectory_of(poses, np.linspace(0, 2, 12)), q0)
        assert traj.reachable[0]
        assert not traj.reachable[-1]
        assert np.isfinite(traj.positions).all()

    def test_non_increasing_times_rejected(self, two_r_model):
        pose = pose_of(forward_kinematics(link_frames_axes(two_r_model, [0.1, 0.2])))
        with pytest.raises(ValueError):
            track_trajectory(two_r_model, trajectory_of([pose, pose], [0.0, 0.0]))

    def test_velocities_match_finite_differences(self, two_r_model):
        # quadratic joint path over non-uniform times: the 3-point stencil
        # recovers the exact derivative
        times = np.array([0.0, 0.3, 0.7, 1.2, 2.0])
        qs = np.stack([0.2 + 0.3 * times + 0.1 * times**2, 0.9 - 0.2 * times], axis=1)
        poses = joint_path_poses(two_r_model, qs)
        traj = track_trajectory(two_r_model, trajectory_of(poses, times), qs[0])
        velocities, accelerations = _fd_derivatives(times, traj.positions)
        expected_v0 = 0.3 + 0.2 * times
        assert np.abs(velocities[:, 0] - expected_v0).max() <= 1e-4
        assert np.abs(accelerations[:, 0] - 0.2).max() <= 1e-3
        assert np.abs(accelerations[:, 1]).max() <= 1e-3

    def test_default_seed_midrange(self, arm7):
        seed = default_seed(arm7)
        lo, hi = arm7.lower, arm7.upper
        assert np.abs(seed - 0.5 * (lo + hi)).max() <= 1e-12

    def test_default_seed_with_default_limits(self):
        # mid-range where both limits are finite, 0 where either is the
        # default infinity, with no inf - inf on the way
        limits = ((-math.inf, math.inf), (-1.0, 2.5), (-math.inf, 0.7), (0.3, math.inf), (0.1, 0.4))
        model = ChainModel(
            joints=tuple(JointSpec("revolute", (0, 0, 1), limits=pair) for pair in limits),
            links=tuple(LinkSpec(1.0, (0, 0, 0), np.zeros((3, 3))) for _ in limits),
        )
        expected = np.zeros(model.n)
        for i, joint in enumerate(model.joints):
            lo, hi = joint.limits
            if math.isfinite(lo) and math.isfinite(hi):
                expected[i] = 0.5 * (lo + hi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            seed = default_seed(model)
        assert seed.tobytes() == expected.tobytes()
        assert seed.tolist() == [0.0, 0.75, 0.0, 0.0, 0.25]


def _poses(rng, count, angles):
    """Poses with random axes and translations at the given angles."""
    axes = rng.normal(size=(count, 3))
    return [
        Pose(Rotation.from_axis_angle(axis, angle), rng.uniform(-1.0, 1.0, 3))
        for axis, angle in zip(axes, angles)
    ]


def _relative(target, current):
    """Quaternion of target * current^-1 before it is renormalised."""
    (w1, x1, y1, z1), (w2, x2, y2, z2) = target.rotation.quat, current.rotation.quat
    x2, y2, z2 = -x2, -y2, -z2
    return np.array([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ])


class TestFloatKernelsMatchOracles:
    """``pose_error`` and ``metrics._fd_derivatives`` reproduce their former
    forms (``tests/oracles.py``) bit for bit."""

    def assert_pose_errors_identical(self, pairs):
        for target, current in pairs:
            got = pose_error(pose_target(target), pose_target(current))
            want = rotation_pose_error(target, current)
            assert got.tobytes() == want.tobytes(), (got, want)

    def test_random_poses(self, rng):
        targets = _poses(rng, 500, rng.uniform(-np.pi, np.pi, 500))
        currents = _poses(rng, 500, rng.uniform(-np.pi, np.pi, 500))
        self.assert_pose_errors_identical(zip(targets, currents))

    def test_small_angles(self, rng):
        # |v| < 1e-9 takes the small-angle branch, 2 v
        targets = _poses(rng, 40, rng.uniform(-np.pi, np.pi, 40))
        pairs = []
        for target, eps in zip(targets, np.tile([0.0, 1e-15, 1e-12, 1e-10, 1.5e-9], 8)):
            turn = Rotation.from_axis_angle(rng.normal(size=3), eps)
            pairs.append((target, Pose(turn * target.rotation, target.translation)))
        assert all(np.linalg.norm(_relative(t, c)[1:]) < 1e-9 for t, c in pairs)
        self.assert_pose_errors_identical(pairs)

    def test_angles_near_pi_and_negative_w(self, rng):
        # relative turns about one axis through pi: near pi the log is
        # ill-conditioned, and past pi the raw product has w < 0 and is
        # flipped to w >= 0
        pairs = []
        for delta in (-1e-3, -1e-9, 0.0, 1e-12, 1e-9, 1e-3, 0.5, 1.5):
            for _ in range(10):
                axis, a = rng.normal(size=3), rng.uniform(0.0, np.pi)
                b = a - np.pi - delta
                t = rng.uniform(-1.0, 1.0, 3)
                pairs.append(
                    (Pose(Rotation.from_axis_angle(axis, a), t), Pose(Rotation.from_axis_angle(axis, b), -t))
                )
        assert sum(_relative(t, c)[0] < 0.0 for t, c in pairs) >= 30
        self.assert_pose_errors_identical(pairs)

    @pytest.mark.parametrize("count", [2, 3, 4, 50])
    def test_fd_derivatives_on_non_uniform_grids(self, rng, count):
        for _ in range(20):
            times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.5, count - 1))])
            pos = rng.normal(size=(count, 7))
            vel, acc = _fd_derivatives(times, pos)
            want_vel, want_acc = loop_fd_derivatives(times, pos)
            assert vel.tobytes() == want_vel.tobytes()
            assert acc.tobytes() == want_acc.tobytes()
