from dataclasses import replace

import numpy as np
import pytest

from postgrasp import (
    ChainModel,
    DegenerateModelError,
    GraspCandidate,
    JointSpec,
    LinkSpec,
    Pose,
    Rotation,
    TaskTrajectory,
    ZeroMotionError,
    attach_object,
    directional_manipulability,
    evaluate_grasp,
    evaluate_task,
    forward_kinematics,
    geometric_jacobian,
    inverse_dynamics,
    link_inertias,
    tem,
    torque_effort,
    tov,
    track_trajectory,
)
from postgrasp.chain import link_frames_axes
from postgrasp.geometry import quaternion_product, unit_quaternion
from postgrasp.metrics import FLAGS, OBJECTIVES
from postgrasp.task import TaskSpec, gripper_trajectory, path_parameter, resample

from oracles import (
    directional_effective_mass,
    effective_mass,
    operational_mass_inverse,
    pose_of,
    rotation_log,
    trajectory_of,
    trajectory_poses,
    two_r_closed_form,
    two_r_ik,
)

G2D = np.array([0.0, -9.81, 0.0])


def svd_route_a2(jac, u, leak_tol=1e-2):
    """Independent oracle for the ellipsoid radius: SVD of J, explicit
    projection onto the range, reciprocal of the restricted quadratic form."""
    uu, ss, _ = np.linalg.svd(jac)
    live = ss**2 > 1e-12
    basis = uu[:, : len(ss)][:, live]
    coords = basis.T @ u
    null_mass = float(u @ u - coords @ coords)
    if null_mass > leak_tol:
        return 0.0
    coords = coords / np.sqrt(1.0 - null_mass)
    return float(1.0 / np.sum(coords**2 / ss[live] ** 2))


def joint_path_task(model, qs, total_time=2.0):
    times = np.linspace(0.0, total_time, len(qs))
    return trajectory_of((pose_of(forward_kinematics(link_frames_axes(model, q))) for q in qs), times)


def passes(model, traj):
    """The kinematic pass over a solved joint path, as a stack of one path:
    the kernels take a (B, W, n) stack and return (B, W) rows."""
    return link_frames_axes(model, traj.positions[None])


def small_object():
    return LinkSpec(mass=0.2, com=np.zeros(3), inertia=np.eye(3) * 1e-4)


class TestDirectionalManipulability:
    def test_isotropic_identity(self, rng):
        jac = np.eye(6)
        for _ in range(20):
            u = rng.normal(size=6)
            u /= np.linalg.norm(u)
            a2, _ = directional_manipulability(jac, u)
            assert abs(a2 - 1.0) <= 1e-12

    def test_major_axis_gives_largest_eigenvalue(self, two_r_params, two_r_model):
        q = np.array([0.0, np.pi / 2])
        jac = two_r_closed_form(two_r_params, q)["J"]
        eigs, vecs = np.linalg.eigh(jac @ jac.T)
        u = vecs[:, -1]
        a2, _ = directional_manipulability(jac, u)
        assert abs(a2 - eigs[-1]) <= 1e-10 * eigs[-1]

    def test_null_direction_gives_zero(self, two_r_model):
        jac = geometric_jacobian(link_frames_axes(two_r_model, np.zeros(2)))  # straightened arm
        u = np.array([1.0, 0, 0, 0, 0, 0])  # radial translation: unreachable
        a2, _ = directional_manipulability(jac, u)
        assert a2 == 0.0

    def test_matches_svd_oracle_full_rank(self, rng):
        for _ in range(200):
            jac = rng.normal(size=(6, rng.integers(6, 9)))
            u = rng.normal(size=6)
            u /= np.linalg.norm(u)
            a2, _ = directional_manipulability(jac, u)
            assert abs(a2 - svd_route_a2(jac, u)) <= 1e-10 * max(1.0, a2)

    def test_defining_identity(self, rng):
        # a^2 u^T (J J^T)^-1 u == 1 at nonsingular points
        for _ in range(100):
            jac = rng.normal(size=(6, 7))
            u = rng.normal(size=6)
            u /= np.linalg.norm(u)
            a2, _ = directional_manipulability(jac, u)
            residual = a2 * (u @ np.linalg.inv(jac @ jac.T) @ u)
            assert abs(residual - 1.0) <= 1e-9

    def test_non_unit_direction_rejected(self):
        with pytest.raises(ValueError):
            directional_manipulability(np.eye(6), np.array([1.0, 1.0, 0, 0, 0, 0]))

    def test_positive_for_full_rank(self, arm7, rng):
        for _ in range(20):
            jac = geometric_jacobian(link_frames_axes(arm7, rng.uniform(-1.2, 1.2, 7)))
            if np.linalg.matrix_rank(jac) < 6:
                continue
            u = rng.normal(size=6)
            u /= np.linalg.norm(u)
            a2, _ = directional_manipulability(jac, u)
            assert a2 > 0.0


class TestTov:
    def _arc_task(self, params, model):
        # tip sweeps an arc inside the annulus; targets built from the
        # closed-form IK branch so the 2R can track them exactly
        center = np.array([0.9, 0.0])
        radius = 0.45
        qs = []
        for theta in np.linspace(0.45 * np.pi, 1.1 * np.pi, 30):
            x, y = center + radius * np.array([np.cos(theta), np.sin(theta)])
            branches = two_r_ik(params, x, y)
            assert branches
            qs.append(min(branches, key=lambda b: abs(b[1] - 1.0)))
        return joint_path_task(model, np.array(qs))

    def test_arc_profile_matches_oracle_route(self, two_r_params, two_r_model):
        task = self._arc_task(two_r_params, two_r_model)
        poses = trajectory_poses(task)
        traj = track_trajectory(
            two_r_model, task, traj_seed(task, two_r_params)
        )
        (values,), _ = tov(passes(two_r_model, traj), [task])
        assert values.min() > 0.0
        # oracle: secant tangents + closed-form Jacobian + SVD route
        oracle_vals = []
        for i in range(len(poses)):
            j = i if i < len(poses) - 1 else i - 1
            dp = poses[j + 1].translation - poses[j].translation
            drot = rotation_log(poses[j + 1].rotation * poses[j].rotation.inverse())
            u = np.concatenate([dp, drot])
            u /= np.linalg.norm(u)
            jac = two_r_closed_form(two_r_params, traj.positions[i])["J"]
            oracle_vals.append(svd_route_a2(jac, u))
        oracle_vals = np.array(oracle_vals)
        assert np.abs(values - oracle_vals).max() <= 1e-4 * oracle_vals.max()
        assert abs(int(np.argmax(values)) - int(np.argmax(oracle_vals))) <= 1
        # the radius genuinely grows and shrinks along the arc
        assert oracle_vals.max() / oracle_vals.min() > 1.2

    def test_integral_is_trapezoid(self, two_r_model, rng):
        qs = np.linspace([0.3, 0.9], [1.0, 0.5], 12)
        task = joint_path_task(two_r_model, qs)
        s = path_parameter(task)
        sc = evaluate_grasp(
            two_r_model, task, GraspCandidate("g", Pose.identity()), small_object(), s, ik_seed=qs[0], gravity=G2D
        )
        values = sc.profiles["tov"]
        manual = 0.0
        for i in range(len(s) - 1):
            manual += 0.5 * (values[i] + values[i + 1]) * (s[i + 1] - s[i])
        assert abs(sc.h_tov - manual) <= 1e-12 * max(1.0, abs(manual))

    def test_quadrature_convergence_on_density(self, two_r_params, two_r_model):
        def h_tov(n_points):
            center, radius = np.array([0.9, 0.0]), 0.45
            qs = []
            for theta in np.linspace(0.5 * np.pi, np.pi, n_points):
                x, y = center + radius * np.array([np.cos(theta), np.sin(theta)])
                qs.append(min(two_r_ik(two_r_params, x, y), key=lambda b: abs(b[1] - 1.0)))
            task = joint_path_task(two_r_model, np.array(qs))
            traj = track_trajectory(two_r_model, task, np.array(qs[0]))
            (values,), _ = tov(passes(two_r_model, traj), [task])
            return float(np.trapezoid(values, path_parameter(task)))

        coarse, fine = h_tov(50), h_tov(100)
        assert abs(fine - coarse) / abs(fine) < 0.01

    def test_zero_motion_raises(self, two_r_model):
        pose = pose_of(forward_kinematics(link_frames_axes(two_r_model, [0.4, 0.8])))
        task = trajectory_of((pose, pose, pose), np.array([0.0, 0.5, 1.0]))
        traj = track_trajectory(
            two_r_model, task, np.array([0.4, 0.8])
        )
        with pytest.raises(ZeroMotionError):
            tov(passes(two_r_model, traj), [task])


def traj_seed(task, params):
    p0 = task.translations[0]
    return np.array(min(two_r_ik(params, p0[0], p0[1]), key=lambda b: abs(b[1] - 1.0)))


class TestTorqueEffort:
    def test_weightless_arm_zero_gravity(self):
        # massless links, negligible object, straight constant-speed line in
        # zero gravity: only numerical residue remains
        model = ChainModel(
            joints=(
                JointSpec(kind="revolute", axis=(0, 0, 1)),
                JointSpec(kind="revolute", axis=(0, 0, 1), origin=Pose(Rotation.identity(), (1, 0, 0))),
            ),
            links=(
                LinkSpec(mass=0.0, com=(1, 0, 0), inertia=np.zeros((3, 3))),
                LinkSpec(mass=0.0, com=(1, 0, 0), inertia=np.zeros((3, 3))),
            ),
            tool_transform=Pose(Rotation.identity(), (1.0, 0.0, 0.0)),
        )
        qs = np.linspace([0.3, 0.9], [0.8, 0.6], 10)
        task = joint_path_task(model, qs)
        traj = track_trajectory(model, task, qs[0])
        obj = LinkSpec(mass=1e-12, com=np.zeros(3), inertia=np.eye(3) * 1e-15)
        loaded = (obj, attach_object(model, GraspCandidate("g", Pose.identity())))
        kins = passes(model, traj)
        (values,) = torque_effort(kins, link_inertias(model, kins, loaded), [traj], gravity=np.zeros(3))
        assert values.max() <= 1e-10

    def test_static_hold_matches_equilibrium_oracle(self, two_r_params, two_r_model):
        # constant trajectory: |tau|^2 = |N_arm + J_com^T (-m g)|^2
        q0 = np.array([0.5, 0.9])
        pose = pose_of(forward_kinematics(link_frames_axes(two_r_model, q0)))
        task = trajectory_of((pose, pose), np.array([0.0, 1.0]))
        traj = track_trajectory(two_r_model, task, q0)
        obj = LinkSpec(mass=0.3, com=np.zeros(3), inertia=np.eye(3) * 1e-5)
        grasp = GraspCandidate("g", Pose.identity())
        kins = passes(two_r_model, traj)
        (values,) = torque_effort(
            kins,
            link_inertias(two_r_model, kins, (obj, attach_object(two_r_model, grasp))),
            [traj],
            gravity=G2D,
        )
        n_arm = two_r_closed_form(two_r_params, q0)["N"]
        jac = two_r_closed_form(two_r_params, q0)["J"]
        tau_expected = n_arm + jac[:3].T @ (-obj.mass * G2D)
        assert abs(values[0] - float(tau_expected @ tau_expected)) <= 1e-8

    def test_object_strictly_increases_effort(self, two_r_params, two_r_model):
        qs = np.linspace([0.4, 1.1], [1.2, 0.5], 15)
        task = joint_path_task(two_r_model, qs)
        s = path_parameter(task)
        traj = track_trajectory(two_r_model, task, qs[0])
        grasp = GraspCandidate("g", Pose.identity())
        obj = LinkSpec(mass=0.4, com=np.zeros(3), inertia=np.eye(3) * 1e-4)
        kins = passes(two_r_model, traj)
        (with_obj,) = torque_effort(
            kins,
            link_inertias(two_r_model, kins, (obj, attach_object(two_r_model, grasp))),
            [traj],
            gravity=G2D,
        )
        # no-object baseline straight from inverse dynamics
        rows = [link_frames_axes(two_r_model, traj.positions[i]) for i in range(len(task))]
        base_vals = np.array(
            [
                float(np.sum(inverse_dynamics(
                    kin, link_inertias(two_r_model, kin),
                    traj.velocities[i], traj.accelerations[i], gravity=G2D,
                ) ** 2))
                for i, kin in enumerate(rows)
            ]
        )
        base = float(np.trapezoid(base_vals, s))
        assert float(np.trapezoid(with_obj, s)) > base


class TestEffectiveMass:
    def test_prismatic_direct_sum(self):
        model = ChainModel(
            joints=(JointSpec(kind="prismatic", axis=(0, 0, 1)),),
            links=(LinkSpec(mass=2.0, com=np.zeros(3), inertia=np.zeros((3, 3))),),
        )
        obj = LinkSpec(mass=0.4, com=np.zeros(3), inertia=np.eye(3) * 1e-6)
        m_e = effective_mass(
            model, [0.1], GraspCandidate("g", Pose.identity()), obj, np.array([0, 0, 1.0, 0, 0, 0])
        )
        assert abs(m_e - 2.4) <= 1e-12

    def test_pendulum_tangential_mass(self):
        length, mass = 0.9, 1.7
        model = ChainModel(
            joints=(JointSpec(kind="revolute", axis=(0, 0, 1)),),
            links=(LinkSpec(mass=mass, com=(length, 0, 0), inertia=np.zeros((3, 3))),),
            tool_transform=Pose(Rotation.identity(), (length, 0, 0)),
        )
        q = 0.3
        u = np.array([-np.sin(q), np.cos(q), 0.0, 0.0, 0.0, 0.0])
        kin = link_frames_axes(model, [q])
        lam_inv = operational_mass_inverse(kin, link_inertias(model, kin))
        value, flagged = directional_effective_mass(lam_inv, u)
        assert abs(value - mass) <= 1e-10
        assert not flagged

    def test_singular_direction_capped_and_flagged(self, two_r_model):
        kin = link_frames_axes(two_r_model, np.zeros(2))
        lam_inv = operational_mass_inverse(kin, link_inertias(two_r_model, kin))
        value, flagged = directional_effective_mass(lam_inv, np.array([1.0, 0, 0, 0, 0, 0]))
        assert value == 1e9
        assert flagged

    def test_bounded_by_operational_inertia_spectrum(self, arm7, rng):
        obj = LinkSpec(mass=0.4, com=np.zeros(3), inertia=np.eye(3) * 1e-3)
        grasp = GraspCandidate("g", Pose(Rotation.identity(), (0, 0, 0.1)))
        for _ in range(10):
            q = rng.uniform(-1.2, 1.2, 7)
            loaded = (obj, attach_object(arm7, grasp))
            kin = link_frames_axes(arm7, q)
            lam_inv = operational_mass_inverse(kin, link_inertias(arm7, kin, loaded))
            eigs = np.linalg.eigvalsh(lam_inv)
            if eigs[0] < 1e-9:
                continue
            u = rng.normal(size=6)
            u /= np.linalg.norm(u)
            m_e = effective_mass(arm7, q, grasp, obj, u)
            assert 1.0 / eigs[-1] - 1e-9 <= m_e <= 1.0 / eigs[0] + 1e-9

    def test_object_mass_monotonicity(self, arm7, rng):
        grasp = GraspCandidate("g", Pose(Rotation.identity(), (0, 0, 0.08)))
        for _ in range(10):
            q = rng.uniform(-1.2, 1.2, 7)
            u = np.zeros(6)
            u[:3] = rng.normal(size=3)
            u /= np.linalg.norm(u)
            light = LinkSpec(mass=0.2, com=np.zeros(3), inertia=np.eye(3) * 5e-4)
            heavy = LinkSpec(mass=0.4, com=np.zeros(3), inertia=np.eye(3) * 1e-3)
            assert effective_mass(arm7, q, grasp, heavy, u) >= effective_mass(
                arm7, q, grasp, light, u
            ) - 1e-12

    def test_object_scaling_does_not_reduce_static_torque(self, arm7):
        # along the reference task postures, doubling the object's mass and
        # inertia never reduces the static |tau|^2
        from postgrasp import load_task, reference_task_path
        from postgrasp.task import gripper_trajectory, resample

        spec = load_task(reference_task_path("task1"))
        task = resample(spec.trajectory, 10)
        grasp = spec.grasps[4]
        traj = track_trajectory(
            arm7,
            gripper_trajectory(task, grasp),
            spec.ik_seed,
        )
        static = type(traj)(
            traj.times, traj.positions, np.zeros_like(traj.velocities),
            np.zeros_like(traj.accelerations), traj.reachable,
        )
        base = spec.obj
        doubled = LinkSpec(mass=2 * spec.obj.mass, com=np.zeros(3), inertia=2 * spec.obj.inertia)
        kins = passes(arm7, static)
        prof1, prof2 = (
            torque_effort(
                kins, link_inertias(arm7, kins, (obj, attach_object(arm7, grasp))), [static],
                gravity=spec.gravity,
            )[0]
            for obj in (base, doubled)
        )
        assert np.all(prof2 >= prof1 - 1e-12)


class TestTem:
    def test_constant_profile_on_prismatic_line(self):
        model = ChainModel(
            joints=(JointSpec(kind="prismatic", axis=(0, 0, 1)),),
            links=(LinkSpec(mass=2.0, com=np.zeros(3), inertia=np.zeros((3, 3))),),
        )
        poses = [Pose(Rotation.identity(), (0, 0, 0.1 * i)) for i in range(6)]
        task = trajectory_of(poses, np.linspace(0, 1, 6))
        traj = track_trajectory(model, task, np.zeros(1))
        obj = LinkSpec(mass=0.4, com=np.zeros(3), inertia=np.eye(3) * 1e-6)
        loaded = (obj, attach_object(model, GraspCandidate("g", Pose.identity())))
        kins = passes(model, traj)
        (values,), _ = tem(kins, link_inertias(model, kins, loaded), [task])
        assert np.abs(values - 2.4).max() <= 1e-9
        assert abs(float(np.trapezoid(values, path_parameter(task))) - 2.4) <= 1e-9

    def test_pure_rotation_task_raises_zero_motion(self, two_r_model):
        # tool orbits the second joint: translation present, but build a
        # genuinely stationary-translation task by rotating in place is not
        # possible for a 2R tool point; use identical poses instead
        pose = pose_of(forward_kinematics(link_frames_axes(two_r_model, [0.2, 0.5])))
        task = trajectory_of((pose, pose), np.array([0.0, 1.0]))
        traj = track_trajectory(
            two_r_model, task, np.array([0.2, 0.5])
        )
        loaded = (small_object(), attach_object(two_r_model, GraspCandidate("g", Pose.identity())))
        kins = passes(two_r_model, traj)
        with pytest.raises(ZeroMotionError):
            tem(kins, link_inertias(two_r_model, kins, loaded), [task])


    def test_singular_mass_matrix_raises(self):
        # planar 3R whose only mass is a point at the tip, carrying a point
        # object there: M = m J_p^T J_p has rank 2
        link_end = Pose(Rotation.identity(), (1.0, 0.0, 0.0))
        massless = LinkSpec(mass=0.0, com=np.zeros(3), inertia=np.zeros((3, 3)))
        model = ChainModel(
            joints=tuple(
                JointSpec(kind="revolute", axis=(0, 0, 1), origin=origin)
                for origin in (Pose.identity(), link_end, link_end)
            ),
            links=(massless, massless, LinkSpec(mass=1.0, com=(1, 0, 0), inertia=np.zeros((3, 3)))),
            tool_transform=link_end,
        )
        qs = np.linspace([0.4, -0.9, 0.3], [0.6, -1.1, 0.4], 5)
        task = joint_path_task(model, qs)
        traj = track_trajectory(model, task, qs[0])
        obj = LinkSpec(mass=0.5, com=np.zeros(3), inertia=np.zeros((3, 3)))
        loaded = (obj, attach_object(model, GraspCandidate("g", Pose.identity())))
        kins = passes(model, traj)
        with pytest.raises(DegenerateModelError, match="numerically singular"):
            tem(kins, link_inertias(model, kins, loaded), [task])


class TestEvaluateGrasp:
    def _task_and_grasp(self, model):
        qs = np.linspace([0.4, 1.1], [1.1, 0.6], 14)
        return joint_path_task(model, qs), qs[0]

    def test_full_pipeline_feasible(self, two_r_model):
        task, q0 = self._task_and_grasp(two_r_model)
        sc = evaluate_grasp(
            two_r_model,
            task,
            GraspCandidate("g01", Pose.identity()),
            small_object(),
            path_parameter(task),
            ik_seed=q0,
            gravity=G2D,
        )
        assert sc.feasible
        for scalar in (sc.h_tov, sc.h_tme, sc.h_tem):
            assert np.isfinite(scalar)
        for values in sc.profiles.values():
            assert isinstance(values, np.ndarray)
            assert len(values) == len(task)

    def test_infeasible_grasp_scorecard(self, two_r_model):
        task, q0 = self._task_and_grasp(two_r_model)
        far = GraspCandidate("gx", Pose(Rotation.identity(), (5.0, 0.0, 0.0)))
        sc = evaluate_grasp(
            two_r_model, task, far, small_object(), path_parameter(task), ik_seed=q0, gravity=G2D
        )
        assert not sc.feasible
        assert sc.h_tov is None and sc.h_tme is None and sc.h_tem is None

    def test_no_motion_task_errors(self, two_r_model):
        pose = pose_of(forward_kinematics(link_frames_axes(two_r_model, [0.3, 0.9])))
        task = trajectory_of((pose, pose), np.array([0.0, 1.0]))
        with pytest.raises(ZeroMotionError):
            evaluate_grasp(
                two_r_model,
                task,
                GraspCandidate("g", Pose.identity()),
                small_object(),
                path_parameter(task),
                ik_seed=np.array([0.3, 0.9]),
                gravity=G2D,
            )

    def test_determinism_under_permutation(self, arm7):
        # a redundant arm reaches offset grasps, so both scorecards are
        # feasible and must come out identical regardless of the order
        down = Rotation(0.0, 1.0, 0.0, 0.0)
        poses = tuple(
            Pose(Rotation.identity(), np.array([0.62, 0.10 - 0.02 * i, 0.12])) for i in range(6)
        )
        task = trajectory_of(poses, np.linspace(0.0, 1.0, 6))
        grasps = [
            GraspCandidate("a", Pose(down, np.array([0.0, -0.04, 0.1]))),
            GraspCandidate("b", Pose(down, np.array([0.0, 0.04, 0.1]))),
        ]
        seed = np.array([1.1714, -0.5996, -1.3336, 1.6372, -2.1718, -1.3377, -0.3196])

        def run(order):
            return {
                g.id: evaluate_grasp(arm7, task, g, small_object(), path_parameter(task), ik_seed=seed)
                for g in order
            }

        first = run(grasps)
        second = run(list(reversed(grasps)))
        for gid in ("a", "b"):
            assert first[gid].feasible and second[gid].feasible
            assert first[gid].h_tov == second[gid].h_tov
            assert first[gid].h_tme == second[gid].h_tme
            assert first[gid].h_tem == second[gid].h_tem

    def test_scoring_invariants_are_built_once(self, monkeypatch):
        # no object frames composed, no robot model built, and per batch of
        # scored grasps one kinematic pass, one inertia build and one call per
        # objective
        from postgrasp import chain, dynamics, load_robot, load_task, metrics
        from postgrasp import reference_robot_path, reference_task_path

        model = load_robot(reference_robot_path("arm7"))
        calls = dict.fromkeys(("compose", "models", "passes", "inertias", "tov", "tme", "tem"), 0)

        def counting(key, fn):
            def counted(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return counted

        monkeypatch.setattr(Pose, "compose", counting("compose", Pose.compose))
        monkeypatch.setattr(chain.ChainModel, "__post_init__", counting("models", chain.ChainModel.__post_init__))
        inertias = counting("inertias", dynamics.link_inertias)
        monkeypatch.setattr(dynamics, "link_inertias", inertias)
        monkeypatch.setattr(metrics, "link_inertias", inertias)
        monkeypatch.setattr(metrics, "link_frames_axes", counting("passes", metrics.link_frames_axes))
        for key, name in (("tov", "tov"), ("tme", "torque_effort"), ("tem", "tem")):
            monkeypatch.setattr(metrics, name, counting(key, getattr(metrics, name)))
        spec = load_task(reference_task_path("task1"))
        cards = evaluate_task(model, spec)
        feasible = sum(c.feasible for c in cards)
        per_batch = metrics._SCORE_ROWS // spec.resample_count
        batches = -(-feasible // per_batch)
        assert feasible == len(cards) == 10 and batches == 2
        assert calls == {"compose": 0, "models": 0, **dict.fromkeys(("passes", "inertias", "tov", "tme", "tem"), batches)}

    def test_index_quadrature_mode(self, two_r_model):
        task, q0 = self._task_and_grasp(two_r_model)
        spec = TaskSpec(
            "t", task, small_object(), (GraspCandidate("g", Pose.identity()),), G2D, len(task), q0
        )
        (sc,) = evaluate_task(two_r_model, spec, index_quadrature=True)
        assert np.abs(sc.s - np.linspace(0, 1, len(task))).max() <= 1e-15

    def test_frame_invariance(self, two_r_model):
        # rotating base, task and gravity together leaves all three scalars
        # unchanged
        task, q0 = self._task_and_grasp(two_r_model)
        grasp = GraspCandidate("g", Pose.identity())
        base_sc = evaluate_grasp(
            two_r_model, task, grasp, small_object(), path_parameter(task), ik_seed=q0, gravity=G2D
        )
        rot = Rotation.from_axis_angle((0.3, -0.5, 0.8), 1.1)
        world = Pose(rot, np.zeros(3))
        turned_model = replace(two_r_model, base_pose=world.compose(two_r_model.base_pose))
        turned_task = TaskTrajectory(
            [unit_quaternion(*quaternion_product(rot.quat, q)) for q in task.quaternions],
            task.translations @ rot.as_matrix().T,
            task.times,
        )
        turned_sc = evaluate_grasp(
            turned_model,
            turned_task,
            grasp,
            small_object(),
            path_parameter(turned_task),
            ik_seed=q0,
            gravity=rot.apply(G2D),
        )
        assert abs(turned_sc.h_tov - base_sc.h_tov) <= 1e-8 * abs(base_sc.h_tov)
        assert abs(turned_sc.h_tme - base_sc.h_tme) <= 1e-8 * abs(base_sc.h_tme)
        assert abs(turned_sc.h_tem - base_sc.h_tem) <= 1e-8 * abs(base_sc.h_tem)

    def test_retiming_changes_only_torque_metric(self, two_r_model):
        task, q0 = self._task_and_grasp(two_r_model)
        grasp = GraspCandidate("g", Pose.identity())
        sc = evaluate_grasp(
            two_r_model, task, grasp, small_object(), path_parameter(task), ik_seed=q0, gravity=G2D
        )
        warped_times = 2.0 * task.total_time * (task.times / task.total_time) ** 1.4
        warped = TaskTrajectory(task.quaternions, task.translations, warped_times)
        sc2 = evaluate_grasp(
            two_r_model, warped, grasp, small_object(), path_parameter(warped), ik_seed=q0, gravity=G2D
        )
        assert sc2.h_tov == sc.h_tov
        assert sc2.h_tem == sc.h_tem
        assert abs(sc2.h_tme - sc.h_tme) / sc.h_tme > 0.01


def test_scorecard_holds_each_fact_once(two_r_model):
    # a 2R path that marches out of the workspace: the early waypoints are
    # reached, later ones are flagged, and the grasp still scores; two
    # grasps (the same pose, as a 2R arm reaches one orientation per
    # point) show the grid is shared
    q0 = np.array([0.6, 0.8])
    start = pose_of(forward_kinematics(link_frames_axes(two_r_model, q0)))
    direction = start.translation / np.linalg.norm(start.translation)
    poses = tuple(
        Pose(start.rotation, start.translation + u * direction) for u in np.linspace(0, 1.2, 12)
    )
    trajectory = trajectory_of(poses, np.linspace(0, 2, 12))
    grasps = (GraspCandidate("g0", Pose.identity()), GraspCandidate("g1", Pose.identity()))
    spec = TaskSpec("outward", trajectory, small_object(), grasps, G2D, 12, q0)
    cards = evaluate_task(two_r_model, spec)
    task = resample(trajectory, 12)
    for grasp, sc in zip(grasps, cards):
        assert sc.feasible
        assert tuple(sc.flags) == FLAGS
        assert tuple(sc.profiles) == tuple(OBJECTIVES)
        reachable = track_trajectory(two_r_model, gripper_trajectory(task, grasp), q0).reachable
        assert reachable[0] and not reachable[-1]
        assert np.array_equal(sc.flags["unreachable"], ~reachable)
        for name in OBJECTIVES:
            assert getattr(sc, f"h_{name}") == np.trapezoid(sc.profiles[name], sc.s)
        assert sc.s is cards[0].s


@pytest.mark.parametrize("batches", [1, 2])
def test_batch_boundaries_change_no_scorecard(arm7, monkeypatch, batches):
    # 6 feasible grasps x 60 waypoints exceed one batch's 256 rows, so they
    # are scored in two, or in one when a batch holds all 360 rows; an
    # infeasible grasp sits between feasible ones, and two different grasps
    # share an id.  Each card is the card of its grasp scored alone, bit for
    # bit, in input order.
    from postgrasp import load_task, metrics, reference_task_path

    spec = load_task(reference_task_path("task3"))
    top = spec.grasps[0].transform.rotation
    grasps = [
        GraspCandidate("edge", Pose(top, (0.0, -0.6, 0.1))),  # feasible, with unreachable waypoints
        spec.grasps[0],
        GraspCandidate("far", Pose(top, (0.0, 0.6, 0.1))),  # infeasible
        spec.grasps[2],
        GraspCandidate("edge", Pose(top, (0.0, -0.52, 0.1))),  # the same id, another grasp
        spec.grasps[4],
        spec.grasps[6],
    ]
    waypoints = 60
    assert 6 * waypoints > metrics._SCORE_ROWS
    if batches == 1:
        monkeypatch.setattr(metrics, "_SCORE_ROWS", 6 * waypoints)
    score = metrics._score
    sizes = []

    def counted(model, obj, s, gravity, rows):
        sizes.append(len(rows))
        return score(model, obj, s, gravity, rows)

    monkeypatch.setattr(metrics, "_score", counted)
    cards = evaluate_task(arm7, spec, grasps=grasps, resample_count=waypoints)
    assert sizes == ([6] if batches == 1 else [4, 2])
    task = resample(spec.trajectory, waypoints)
    s = path_parameter(task)
    assert [c.grasp_id for c in cards] == [g.id for g in grasps]
    assert [c.feasible for c in cards] == [True, True, False, True, True, True, True]
    assert cards[0].counts()["unreachable"] > 0
    for grasp, card in zip(grasps, cards):
        alone = evaluate_grasp(arm7, task, grasp, spec.obj, s, ik_seed=spec.ik_seed, gravity=spec.gravity)
        assert card.feasible is alone.feasible
        for name in OBJECTIVES:
            assert repr(getattr(card, f"h_{name}")) == repr(getattr(alone, f"h_{name}"))
        if not alone.feasible:
            assert card.profiles is card.flags is None
            continue
        assert card.s.tobytes() == alone.s.tobytes()
        for name in OBJECTIVES:
            assert card.profiles[name].tobytes() == alone.profiles[name].tobytes(), name
        for name in FLAGS:
            assert card.flags[name].tobytes() == alone.flags[name].tobytes(), name


def test_non_finite_ik_seed_named(two_r_model):
    # a task built in code may carry a seed that a task file would refuse:
    # it is named, not tracked into an infeasible card per grasp
    task = joint_path_task(two_r_model, np.linspace([0.4, 1.1], [1.1, 0.6], 6))
    seed = np.array([0.4, np.nan])
    spec = TaskSpec("nan_seed", task, small_object(), (GraspCandidate("g", Pose.identity()),), G2D, 6, seed)
    with pytest.raises(ValueError, match=r"^task 'nan_seed': ik_seed \[0\.4, nan\] is not finite$"):
        evaluate_task(two_r_model, spec)
    with pytest.raises(ValueError, match=r"^IK seed \[0\.4, nan\] is not finite$"):
        track_trajectory(two_r_model, task, seed)
