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
    attach_object,
    augmented_mass_matrix,
    directional_inverse_inertia,
    geometric_jacobian,
    inverse_dynamics,
    link_inertias,
    mass_matrix,
)
from postgrasp.chain import link_frames_axes
from postgrasp.dynamics import motion_columns

from oracles import (
    TwoRParams,
    coriolis_matrix,
    cuboid_inertia,
    gravity_vector,
    merged_model,
    object_in_last_link,
    operational_mass_inverse,
    two_r_closed_form,
)
from conftest import make_two_r

G2D = np.array([0.0, -9.81, 0.0])  # in-plane gravity for the planar arm


def potential_energy(model, q, gravity):
    """Energy-route oracle: V = -sum_i m_i g . com_i(q)."""
    total = 0.0
    kin = link_frames_axes(model, q)
    for link, rot, origin in zip(model.links, kin.rotations, kin.origins):
        total -= link.mass * float(np.dot(gravity, rot @ link.com + origin))
    return total


def random_spatial_chain(rng, n=4):
    joints, links = [], []
    for _ in range(n):
        kind = "prismatic" if rng.random() < 0.25 else "revolute"
        axis = rng.normal(size=3)
        origin = Pose(
            Rotation.from_axis_angle(rng.normal(size=3), rng.uniform(-1.5, 1.5)),
            rng.uniform(-0.3, 0.3, 3),
        )
        joints.append(JointSpec(kind=kind, axis=axis, origin=origin))
        d = rng.uniform(0.01, 0.1, 3)
        links.append(
            LinkSpec(
                mass=rng.uniform(0.5, 3.0),
                com=rng.uniform(-0.2, 0.2, 3),
                inertia=np.diag([d[1] + d[2], d[0] + d[2], d[0] + d[1]]),
            )
        )
    tool = Pose(Rotation.from_axis_angle(rng.normal(size=3), 0.4), rng.uniform(-0.1, 0.1, 3))
    return ChainModel(joints=tuple(joints), links=tuple(links), tool_transform=tool)


class TestMassMatrix:
    def test_single_prismatic_link(self):
        model = ChainModel(
            joints=(JointSpec(kind="prismatic", axis=(0, 0, 1)),),
            links=(LinkSpec(mass=2.0, com=np.zeros(3), inertia=np.zeros((3, 3))),),
        )
        kin = link_frames_axes(model, [0.4])
        m = mass_matrix(kin, link_inertias(model, kin))
        assert np.abs(m - np.array([[2.0]])).max() <= 1e-15

    def test_two_r_m11_closed_form(self, two_r_params, two_r_model, rng):
        p = two_r_params
        for _ in range(50):
            q = rng.uniform(-np.pi, np.pi, 2)
            m11 = p.m1 * p.l1**2 + p.m2 * (p.l1**2 + p.l2**2 + 2 * p.l1 * p.l2 * np.cos(q[1]))
            kin = link_frames_axes(two_r_model, q)
            m = mass_matrix(kin, link_inertias(two_r_model, kin))
            assert abs(m[0, 0] - m11) <= 1e-12

    def test_two_r_full_matrix(self, two_r_params, two_r_model, rng):
        for _ in range(100):
            q = rng.uniform(-np.pi, np.pi, 2)
            oracle = two_r_closed_form(two_r_params, q)["M"]
            kin = link_frames_axes(two_r_model, q)
            got = mass_matrix(kin, link_inertias(two_r_model, kin))
            assert np.abs(got - oracle).max() / np.abs(oracle).max() <= 1e-12

    def test_symmetric_positive_definite(self, rng):
        for trial in range(10):
            model = random_spatial_chain(rng)
            q = rng.uniform(-np.pi, np.pi, model.n)
            kin = link_frames_axes(model, q)
            m = mass_matrix(kin, link_inertias(model, kin))
            assert np.abs(m - m.T).max() <= 1e-10
            assert np.linalg.eigvalsh(m)[0] > 0.0

    def test_column_assembly_agrees(self, rng):
        # CRBA against the independent RNEA route: M e_i = tau(q,0,e_i) - N(q)
        model = random_spatial_chain(rng)
        g = np.array([0.0, 0.0, -9.81])
        for _ in range(10):
            q = rng.uniform(-np.pi, np.pi, model.n)
            kin = link_frames_axes(model, q)
            inertias = link_inertias(model, kin)
            m = mass_matrix(kin, inertias)
            n_vec = gravity_vector(model, q, g)
            cols = np.column_stack(
                [
                    inverse_dynamics(kin, inertias, np.zeros(model.n), e, gravity=g) - n_vec
                    for e in np.eye(model.n)
                ]
            )
            assert np.abs(m - cols).max() / np.abs(m).max() <= 1e-9


class TestCoriolis:
    def test_zero_velocity_gives_zero(self, two_r_model, rng):
        q = rng.uniform(-np.pi, np.pi, 2)
        assert np.abs(coriolis_matrix(two_r_model, q, np.zeros(2))).max() <= 1e-12

    def test_two_r_closed_form(self, two_r_params, two_r_model, rng):
        for _ in range(50):
            q = rng.uniform(-np.pi, np.pi, 2)
            qd = rng.uniform(-1.0, 1.0, 2)
            oracle = two_r_closed_form(two_r_params, q, qd)["C"]
            got = coriolis_matrix(two_r_model, q, qd)
            assert np.abs(got - oracle).max() / max(np.abs(oracle).max(), 1e-9) <= 1e-5

    def test_two_r_c11_hand_value(self, two_r_model):
        # unit lengths and masses: C11 = -m2 l1 l2 sin(q2) qd2
        model = make_two_r(TwoRParams())
        q = np.array([0.3, 0.7])
        qd = np.array([0.0, 0.9])
        assert abs(coriolis_matrix(model, q, qd)[0, 0] - (-np.sin(0.7) * 0.9)) <= 1e-6

    def test_mdot_minus_2c_skew(self, arm7, rng):
        # Mdot by an independent directional finite difference in time
        dt = 1e-6
        for _ in range(5):
            q = rng.uniform(-1.5, 1.5, 7)
            qd = rng.uniform(-1.0, 1.0, 7)
            plus, minus = link_frames_axes(arm7, q + qd * dt), link_frames_axes(arm7, q - qd * dt)
            mdot = (
                mass_matrix(plus, link_inertias(arm7, plus))
                - mass_matrix(minus, link_inertias(arm7, minus))
            ) / (2 * dt)
            s = mdot - 2.0 * coriolis_matrix(arm7, q, qd)
            assert np.abs(s + s.T).max() <= 1e-6


class TestGravity:
    def test_planar_arm_out_of_plane_gravity(self, two_r_model, rng):
        # links move in the x-y plane; gravity along -z does no work
        q = rng.uniform(-np.pi, np.pi, 2)
        n_vec = gravity_vector(two_r_model, q, np.array([0.0, 0.0, -9.81]))
        assert np.abs(n_vec).max() <= 1e-12

    def test_pendulum_textbook_value(self):
        # mass m at length l, angle q from "down" (+x with gravity +x):
        # N = m g l sin(q)
        m_val, l_val, g_val = 1.4, 0.8, 9.81
        model = ChainModel(
            joints=(JointSpec(kind="revolute", axis=(0, 0, 1)),),
            links=(LinkSpec(mass=m_val, com=(l_val, 0, 0), inertia=np.zeros((3, 3))),),
        )
        for q in (0.0, 0.4, 1.1, np.pi / 2, 2.5):
            n_vec = gravity_vector(model, [q], np.array([g_val, 0.0, 0.0]))
            assert abs(n_vec[0] - m_val * g_val * l_val * np.sin(q)) <= 1e-10

    def test_finite_difference_of_potential(self, rng):
        h = 1e-6
        g = np.array([0.0, 0.0, -9.81])
        for maker in (lambda: make_two_r(TwoRParams()), lambda: random_spatial_chain(rng)):
            model = maker()
            gravity = G2D if model.n == 2 else g
            q = rng.uniform(-np.pi, np.pi, model.n)
            n_vec = gravity_vector(model, q, gravity)
            for i in range(model.n):
                dq = np.zeros(model.n)
                dq[i] = h
                fd = (
                    potential_energy(model, q + dq, gravity)
                    - potential_energy(model, q - dq, gravity)
                ) / (2 * h)
                assert abs(n_vec[i] - fd) <= 1e-5 * max(1.0, abs(fd))


class TestInverseDynamics:
    def test_static_hold_equals_gravity(self, two_r_model, rng):
        q = rng.uniform(-np.pi, np.pi, 2)
        kin = link_frames_axes(two_r_model, q)
        tau = inverse_dynamics(kin, link_inertias(two_r_model, kin), np.zeros(2), np.zeros(2), gravity=G2D)
        assert np.abs(tau - gravity_vector(two_r_model, q, G2D)).max() <= 1e-12

    def test_rates_must_match_the_state_batch(self, arm7, rng):
        one = link_frames_axes(arm7, rng.uniform(-1.0, 1.0, 7))
        three = link_frames_axes(arm7, rng.uniform(-1.0, 1.0, (3, 7)))
        for kin, qd, qdd in (
            (one, np.zeros((3, 7)), np.zeros((3, 7))),
            (one, np.zeros(7), np.zeros((3, 7))),
            (three, np.zeros(7), np.zeros(7)),
            (three, np.zeros((3, 7)), np.zeros(7)),
            (three, np.zeros((2, 7)), np.zeros((2, 7))),
        ):
            with pytest.raises(ValueError, match="do not match"):
                inverse_dynamics(kin, link_inertias(arm7, kin), qd, qdd)

    def test_two_r_closed_form(self, two_r_params, two_r_model, rng):
        for _ in range(100):
            q = rng.uniform(-np.pi, np.pi, 2)
            qd = rng.uniform(-1.0, 1.0, 2)
            qdd = rng.uniform(-1.0, 1.0, 2)
            oracle = two_r_closed_form(two_r_params, q, qd, qdd)["tau"]
            kin = link_frames_axes(two_r_model, q)
            got = inverse_dynamics(kin, link_inertias(two_r_model, kin), qd, qdd, gravity=G2D)
            assert np.abs(got - oracle).max() / max(np.abs(oracle).max(), 1e-9) <= 1e-10

    def test_assembled_equation_of_motion(self, arm7, rng):
        for _ in range(3):
            q = rng.uniform(-1.5, 1.5, 7)
            qd = rng.uniform(-1.0, 1.0, 7)
            qdd = rng.uniform(-1.0, 1.0, 7)
            kin = link_frames_axes(arm7, q)
            inertias = link_inertias(arm7, kin)
            tau = inverse_dynamics(kin, inertias, qd, qdd)
            assembled = (
                mass_matrix(kin, inertias) @ qdd
                + coriolis_matrix(arm7, q, qd) @ qd
                + gravity_vector(arm7, q)
            )
            assert np.abs(tau - assembled).max() / max(np.abs(tau).max(), 1.0) <= 1e-8

    def test_energy_consistency_along_rollout(self, rng):
        # d/dt (0.5 qd' M qd) must equal qd' (tau - N) for any trajectory
        model = random_spatial_chain(rng)
        g = np.array([0.0, 0.0, -9.81])
        amp = rng.uniform(0.3, 0.8, model.n)
        freq = rng.uniform(0.5, 1.5, model.n)
        phase = rng.uniform(0, 2 * np.pi, model.n)

        def state(t):
            return (
                amp * np.sin(freq * t + phase),
                amp * freq * np.cos(freq * t + phase),
                -amp * freq**2 * np.sin(freq * t + phase),
            )

        def kinetic(t):
            q, qd, _ = state(t)
            kin = link_frames_axes(model, q)
            return 0.5 * qd @ mass_matrix(kin, link_inertias(model, kin)) @ qd

        dt = 1e-6
        for t in np.linspace(0.2, 2.0, 8):
            q, qd, qdd = state(t)
            kin = link_frames_axes(model, q)
            tau = inverse_dynamics(kin, link_inertias(model, kin), qd, qdd, gravity=g)
            n_vec = gravity_vector(model, q, g)
            lhs = (kinetic(t + dt) - kinetic(t - dt)) / (2 * dt)
            rhs = qd @ (tau - n_vec)
            assert abs(lhs - rhs) <= 1e-4 * max(1.0, abs(rhs))

    def test_object_gravity_wrench_mapping(self, arm7, rng):
        # static-equilibrium oracle: attaching a mass at the tool raises the
        # hold torque by J_com^T (-m g)
        obj_mass = 0.4
        obj = LinkSpec(mass=obj_mass, com=np.zeros(3), inertia=np.zeros((3, 3)))
        g = np.array([0.0, 0.0, -9.81])
        for _ in range(5):
            q = rng.uniform(-1.2, 1.2, 7)
            kin = link_frames_axes(arm7, q)
            tau_free = inverse_dynamics(kin, link_inertias(arm7, kin), np.zeros(7), np.zeros(7), gravity=g)
            tau_load = inverse_dynamics(
                kin,
                link_inertias(arm7, kin, (obj, attach_object(arm7, GraspCandidate("g", Pose.identity())))),
                np.zeros(7),
                np.zeros(7),
                gravity=g,
            )
            jac = geometric_jacobian(link_frames_axes(arm7, q))
            expected = jac[:3].T @ (-obj_mass * g)
            assert np.abs((tau_load - tau_free) - expected).max() <= 1e-10


class TestAugmentedDynamics:
    def test_zero_mass_object_is_noop(self, arm7, rng):
        loaded = LinkSpec(mass=0.0, com=arm7.tool_transform.apply([0.0, 0.1, 0.05]), inertia=np.zeros((3, 3)))
        kin = link_frames_axes(arm7, rng.uniform(-1.0, 1.0, 7))
        assert np.abs(
            mass_matrix(kin, link_inertias(arm7, kin, (loaded, np.eye(4))))
            - mass_matrix(kin, link_inertias(arm7, kin))
        ).max() <= 1e-12

    def test_prismatic_point_mass_direct_sum(self):
        model = ChainModel(
            joints=(JointSpec(kind="prismatic", axis=(0, 0, 1)),),
            links=(LinkSpec(mass=2.0, com=np.zeros(3), inertia=np.zeros((3, 3))),),
        )
        grasp = GraspCandidate("g", Pose.identity())
        obj = LinkSpec(mass=0.4, com=np.zeros(3), inertia=np.zeros((3, 3)))
        m_tot = augmented_mass_matrix(model, [0.2], grasp, obj)
        assert np.abs(m_tot - np.array([[2.4]])).max() <= 1e-12

    def test_reference_cuboid_inertia_values(self):
        # 0.4 kg uniform cuboid, 0.5 x 0.15 x 0.2 m: diagonal inertia from
        # the standard formula, frozen
        inertia = cuboid_inertia(0.4, (0.5, 0.15, 0.2))
        expected = np.array([0.00208333333333333, 0.00966666666666667, 0.00908333333333333])
        assert np.abs(np.diag(inertia) - expected).max() <= 1e-15

    def test_matches_combined_chain(self, arm7, rng):
        # adding the object's body to the last link and re-running CRBA
        # must agree with the Jacobian-mapped augmentation; the grasp
        # rotation is not a half turn about a principal axis, so R I R^T != I
        # and a lost grasp rotation shows
        obj = LinkSpec(mass=0.4, com=np.zeros(3), inertia=cuboid_inertia(0.4, (0.5, 0.15, 0.2)))
        rotation = Rotation.from_axis_angle((1.0, 2.0, 3.0), 0.7)
        grasp = GraspCandidate("g", Pose(rotation, np.array([0.0, 0.1, 0.1])))
        body = (obj, attach_object(arm7, grasp))
        for _ in range(10):
            q = rng.uniform(-1.5, 1.5, 7)
            m1 = augmented_mass_matrix(arm7, q, grasp, obj)
            kin = link_frames_axes(arm7, q)
            m2 = mass_matrix(kin, link_inertias(arm7, kin, body))
            assert np.abs(m1 - m2).max() / np.abs(m1).max() <= 1e-12

    def test_object_com_off_its_frame_origin(self, arm7, rng):
        # a CoM given off the object frame's origin is placed alike by the
        # attached body, by the Jacobian-mapped augmentation and by the body
        # re-expressed in the last link's frame and merged into that link
        obj = LinkSpec(mass=0.4, com=(0.05, -0.02, 0.03), inertia=cuboid_inertia(0.4, (0.5, 0.15, 0.2)))
        rotation = Rotation.from_axis_angle((1.0, 2.0, 3.0), 0.7)
        grasp = GraspCandidate("g", Pose(rotation, np.array([0.0, 0.1, 0.1])))
        merged = merged_model(arm7, object_in_last_link(arm7, grasp, obj))
        for _ in range(5):
            q = rng.uniform(-1.5, 1.5, 7)
            kin = link_frames_axes(arm7, q)
            m_aug = augmented_mass_matrix(arm7, q, grasp, obj)
            m_attached = mass_matrix(kin, link_inertias(arm7, kin, (obj, attach_object(arm7, grasp))))
            m_merged = mass_matrix(kin, link_inertias(merged, kin))
            assert np.abs(m_attached - m_aug).max() / np.abs(m_aug).max() <= 1e-12
            assert np.abs(m_merged - m_aug).max() / np.abs(m_aug).max() <= 1e-12

    def test_relink_last_link_as_object(self, arm7, rng):
        # detach the arm's own last link and re-attach it as the "grasped
        # object": the augmented matrix must equal the original mass matrix
        last = arm7.links[-1]
        stripped = ChainModel(
            joints=arm7.joints,
            links=arm7.links[:-1] + (LinkSpec(mass=0.0, com=np.zeros(3), inertia=np.zeros((3, 3))),),
            base_pose=arm7.base_pose,
            tool_transform=arm7.tool_transform,
            name="stripped",
        )
        body = LinkSpec(mass=last.mass, com=np.zeros(3), inertia=last.inertia)
        # the "object frame" sits at the link CoM with the link's axes, so
        # the gripper (tool) frame is the tool transform seen from the CoM
        grasp = GraspCandidate(
            "relink", Pose(Rotation.identity(), -last.com).compose(arm7.tool_transform)
        )
        for _ in range(10):
            q = rng.uniform(-1.5, 1.5, 7)
            m_aug = augmented_mass_matrix(stripped, q, grasp, body)
            kin = link_frames_axes(arm7, q)
            m_ref = mass_matrix(kin, link_inertias(arm7, kin))
            assert np.abs(m_aug - m_ref).max() / np.abs(m_ref).max() <= 1e-8


class TestOperationalMassInverse:
    def test_prismatic_reciprocal_mass(self):
        model = ChainModel(
            joints=(JointSpec(kind="prismatic", axis=(0, 0, 1)),),
            links=(LinkSpec(mass=2.0, com=np.zeros(3), inertia=np.zeros((3, 3))),),
        )
        kin = link_frames_axes(model, [0.3])
        lam_inv = operational_mass_inverse(kin, link_inertias(model, kin))
        u = np.array([0, 0, 1.0, 0, 0, 0])
        assert abs(u @ lam_inv @ u - 0.5) <= 1e-12

    def test_symmetric_psd(self, arm7, rng):
        for _ in range(10):
            kin = link_frames_axes(arm7, rng.uniform(-1.5, 1.5, 7))
            lam_inv = operational_mass_inverse(kin, link_inertias(arm7, kin))
            assert np.abs(lam_inv - lam_inv.T).max() <= 1e-12
            assert np.linalg.eigvalsh(lam_inv)[0] >= -1e-12

    def test_straightened_two_r_radial_direction_vanishes(self, two_r_model):
        kin = link_frames_axes(two_r_model, np.zeros(2))
        lam_inv = operational_mass_inverse(kin, link_inertias(two_r_model, kin))
        u = np.array([1.0, 0, 0, 0, 0, 0])
        assert abs(u @ lam_inv @ u) <= 1e-12

    def test_degenerate_model_raises(self):
        # massless second link makes the joint-space mass matrix singular
        model = ChainModel(
            joints=(
                JointSpec(kind="revolute", axis=(0, 0, 1)),
                JointSpec(kind="revolute", axis=(0, 0, 1), origin=Pose(Rotation.identity(), (1, 0, 0))),
            ),
            links=(
                LinkSpec(mass=1.0, com=(1, 0, 0), inertia=np.zeros((3, 3))),
                LinkSpec(mass=0.0, com=np.zeros(3), inertia=np.zeros((3, 3))),
            ),
        )
        kin = link_frames_axes(model, np.array([0.3, 0.4]))
        with pytest.raises(DegenerateModelError):
            operational_mass_inverse(kin, link_inertias(model, kin))

    def test_inertias_of_another_pass_rejected(self, arm7, two_r_model, rng):
        # inertias built on a pass of another batch shape or joint count
        # would broadcast into a wrong answer
        one = link_frames_axes(arm7, rng.uniform(-1.0, 1.0, 7))
        three = link_frames_axes(arm7, rng.uniform(-1.0, 1.0, (3, 7)))
        planar = link_inertias(two_r_model, link_frames_axes(two_r_model, np.zeros(2)))
        cases = ((one, link_inertias(arm7, three)), (three, link_inertias(arm7, one)), (one, planar))
        for kin, inertias in cases:
            rates = np.zeros(motion_columns(kin).shape[:-1])
            for call in (
                lambda: mass_matrix(kin, inertias),
                lambda: inverse_dynamics(kin, inertias, rates, rates),
                lambda: operational_mass_inverse(kin, inertias),
            ):
                with pytest.raises(ValueError, match="do not fit"):
                    call()

    def test_state_of_another_chain_rejected(self, arm7, two_r_model):
        with pytest.raises(ValueError, match="kinematic state has 2 joints"):
            link_inertias(arm7, link_frames_axes(two_r_model, np.zeros(2)))


class TestDirectionalInverseInertia:
    def test_prismatic_reciprocal_mass(self):
        model = ChainModel(
            joints=(JointSpec(kind="prismatic", axis=(0, 0, 1)),),
            links=(LinkSpec(mass=2.0, com=np.zeros(3), inertia=np.zeros((3, 3))),),
        )
        kin = link_frames_axes(model, [0.3])
        u = np.array([0, 0, 1.0, 0, 0, 0])
        assert abs(directional_inverse_inertia(kin, link_inertias(model, kin), u) - 0.5) <= 1e-12

    def test_straightened_two_r_radial_direction_vanishes(self, two_r_model):
        kin = link_frames_axes(two_r_model, np.zeros(2))
        u = np.array([1.0, 0, 0, 0, 0, 0])
        assert abs(directional_inverse_inertia(kin, link_inertias(two_r_model, kin), u)) <= 1e-12

    def test_stack_matches_the_operational_form_and_its_rows(self, arm7, rng):
        # each row of a (3, 2) stack equals u^T Lambda^-1 u of the 6x6
        # oracle, and has the bits of the same configuration alone
        q = rng.uniform(-1.2, 1.2, (3, 2, 7))
        u = rng.normal(size=(3, 2, 6))
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        kin = link_frames_axes(arm7, q)
        inertias = link_inertias(arm7, kin)
        got = directional_inverse_inertia(kin, inertias, u)
        want = np.einsum("...i,...ij,...j->...", u, operational_mass_inverse(kin, inertias), u)
        assert got.shape == (3, 2)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        for i, j in np.ndindex(3, 2):
            one = link_frames_axes(arm7, q[i, j])
            assert got[i, j].tobytes() == directional_inverse_inertia(one, link_inertias(arm7, one), u[i, j]).tobytes()

    def test_degenerate_model_raises(self):
        # massless second link makes the joint-space mass matrix singular
        model = ChainModel(
            joints=(
                JointSpec(kind="revolute", axis=(0, 0, 1)),
                JointSpec(kind="revolute", axis=(0, 0, 1), origin=Pose(Rotation.identity(), (1, 0, 0))),
            ),
            links=(
                LinkSpec(mass=1.0, com=(1, 0, 0), inertia=np.zeros((3, 3))),
                LinkSpec(mass=0.0, com=np.zeros(3), inertia=np.zeros((3, 3))),
            ),
        )
        kin = link_frames_axes(model, np.array([0.3, 0.4]))
        with pytest.raises(DegenerateModelError, match="numerically singular"):
            directional_inverse_inertia(kin, link_inertias(model, kin), np.eye(6)[0])

    def test_inertias_of_another_pass_rejected(self, arm7, rng):
        one = link_frames_axes(arm7, rng.uniform(-1.0, 1.0, 7))
        three = link_frames_axes(arm7, rng.uniform(-1.0, 1.0, (3, 7)))
        with pytest.raises(ValueError, match="do not fit"):
            directional_inverse_inertia(one, link_inertias(arm7, three), np.eye(6)[0])
