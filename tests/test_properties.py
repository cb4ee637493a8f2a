"""Property tests of the kinematic pass and the dynamics on random serial
chains: 1-7 joints, revolute and prismatic mixed, random joint origins,
base and tool poses and link inertias, at one configuration or a stack,
including the pass's bit identity with its eager form, the dynamics'
linearity in the link inertias, a held body's inertia against the
parallel-axis merge and the directional inverse inertia against the 6x6
operational form; of damped least-squares IK against the
reference loop on such a chain; and of the three objectives along a joint
path on such a chain."""

import numpy as np
from dataclasses import fields, replace

from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

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
    augmented_mass_matrix,
    directional_inverse_inertia,
    evaluate_grasp,
    forward_kinematics,
    inverse_dynamics,
    link_inertias,
    mass_matrix,
)
from postgrasp.chain import link_frames_axes
from postgrasp.geometry import quaternion_product, unit_quaternion
from postgrasp.ik import _solve
from postgrasp.task import path_parameter

from oracles import (
    eager_link_frames_axes,
    merged_model,
    object_in_last_link,
    operational_mass_inverse,
    pose_of,
    reference_dls,
    rotation_log,
    trajectory_of,
)

# no shrink phase: a failure is reported on the example that first showed
# it, so a broken kernel fails within the 60 examples instead of shrinking
# for minutes while the process grows past a gigabyte
PROPERTY_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target),
)

coordinate = st.floats(-0.4, 0.4)
vectors = st.tuples(coordinate, coordinate, coordinate).map(np.array)
unit_vectors = st.tuples(st.floats(0, np.pi), st.floats(-np.pi, np.pi)).map(
    lambda a: np.array([np.sin(a[0]) * np.cos(a[1]), np.sin(a[0]) * np.sin(a[1]), np.cos(a[0])])
)
angles = st.floats(-np.pi, np.pi)


@st.composite
def poses(draw):
    return Pose(Rotation.from_axis_angle(draw(unit_vectors), draw(angles)), draw(vectors))


@st.composite
def inertia_tensors(draw):
    """A rotated diagonal tensor whose principal moments obey the triangle
    inequality, from three positive 'extents'."""
    d = np.array(draw(st.tuples(*[st.floats(0.01, 0.1)] * 3)))
    r = draw(poses()).rotation.as_matrix()
    return r @ np.diag([d[1] + d[2], d[0] + d[2], d[0] + d[1]]) @ r.T


@st.composite
def chains(draw):
    n = draw(st.integers(1, 7))
    joints, links = [], []
    for _ in range(n):
        kind = draw(st.sampled_from(("revolute", "prismatic")))
        joints.append(JointSpec(kind=kind, axis=draw(unit_vectors), origin=draw(poses())))
        links.append(
            LinkSpec(mass=draw(st.floats(0.1, 3.0)), com=draw(vectors), inertia=draw(inertia_tensors()))
        )
    return ChainModel(
        joints=tuple(joints),
        links=tuple(links),
        base_pose=draw(poses()),
        tool_transform=draw(poses()),
    )


@st.composite
def chains_and_configurations(draw):
    model = draw(chains())
    q = np.array([draw(angles) for _ in range(model.n)])
    return model, q


@st.composite
def chains_and_stacks(draw):
    """A chain with m configurations, joint velocities and accelerations."""
    model = draw(chains())
    m = draw(st.integers(1, 4))
    rows = [[draw(angles) for _ in range(3 * model.n)] for _ in range(m)]
    q, qd, qdd = np.split(np.array(rows), 3, axis=1)
    return model, q, qd, qdd


@st.composite
def chains_and_joint_arrays(draw):
    """A chain with one configuration or a stack of them, shaped (n,),
    (m, n) or (2, 2, n), whose entries include signed zeros."""
    model = draw(chains())
    shape = draw(st.sampled_from(((), (1,), (3,), (2, 2)))) + (model.n,)
    values = st.one_of(angles, st.sampled_from((0.0, -0.0)))
    q = np.array([draw(values) for _ in range(int(np.prod(shape)))]).reshape(shape)
    return model, q


def rel_err(got, want):
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-12))


@PROPERTY_SETTINGS
@given(chains_and_configurations())
def test_jacobian_matches_central_differences(case):
    model, q = case
    h = 1e-6
    jac = link_frames_axes(model, q).jacobian
    for k in range(model.n):
        dq = np.zeros(model.n)
        dq[k] = h
        plus, minus = pose_of(forward_kinematics(model, q + dq)), pose_of(forward_kinematics(model, q - dq))
        linear = (plus.translation - minus.translation) / (2 * h)
        angular = rotation_log(plus.rotation * minus.rotation.inverse()) / (2 * h)
        assert np.abs(jac[:3, k] - linear).max() <= 1e-7
        assert np.abs(jac[3:, k] - angular).max() <= 1e-7


@PROPERTY_SETTINGS
@given(chains_and_configurations())
def test_mass_matrix_symmetric_positive_definite(case):
    model, q = case
    kin = link_frames_axes(model, q)
    m = mass_matrix(kin, link_inertias(model, kin))
    assert np.abs(m - m.T).max() <= 1e-12 * np.abs(m).max()
    # every link has a positive-definite inertia, so M is positive definite
    # whenever the motion columns of the first six joints are independent
    assume(np.linalg.cond(kin.motion[:6]) < 1e6)
    assert np.linalg.eigvalsh(m)[0] > 0.0


@PROPERTY_SETTINGS
@given(chains_and_configurations())
def test_unit_acceleration_torques_are_mass_matrix_columns(case):
    model, q = case
    kin = link_frames_axes(model, q)
    inertias = link_inertias(model, kin)
    m = mass_matrix(kin, inertias)
    zero = np.zeros(model.n)
    cols = np.column_stack(
        [inverse_dynamics(kin, inertias, zero, e, gravity=np.zeros(3)) for e in np.eye(model.n)]
    )
    assert rel_err(cols, m) <= 1e-12


@PROPERTY_SETTINGS
@given(chains_and_configurations(), poses(), st.floats(0.05, 2.0), inertia_tensors())
def test_merged_object_matches_augmented_mass_matrix(case, grasp_pose, mass, inertia):
    model, q = case
    grasp = GraspCandidate("g", grasp_pose)
    obj = LinkSpec(mass=mass, com=np.zeros(3), inertia=inertia)
    kin = link_frames_axes(model, q)
    attached = mass_matrix(kin, link_inertias(model, kin, (obj, attach_object(model, grasp))))
    assert rel_err(attached, augmented_mass_matrix(model, q, grasp, obj)) <= 1e-12


@PROPERTY_SETTINGS
@given(chains_and_joint_arrays(), poses(), st.floats(0.05, 2.0), inertia_tensors())
def test_attached_body_matches_the_parallel_axis_merge(case, grasp_pose, mass, inertia):
    # the object's spatial inertia added to the last link's equals the
    # inertia of the one body the parallel-axis theorem merges them into,
    # at one configuration or a stack
    model, q = case
    grasp = GraspCandidate("g", grasp_pose)
    obj = LinkSpec(mass=mass, com=np.zeros(3), inertia=inertia)
    merged = merged_model(model, object_in_last_link(model, grasp, obj))
    kin = link_frames_axes(model, q)
    assert rel_err(link_inertias(model, kin, (obj, attach_object(model, grasp))), link_inertias(merged, kin)) <= 1e-12


@PROPERTY_SETTINGS
@given(chains_and_stacks())
def test_stacked_configurations_match_rows(case):
    # leading axes (m, 1): the pass, CRBA and RNEA on a stack agree with
    # one call per configuration
    model, q, qd, qdd = case
    stack = link_frames_axes(model, q[:, None])
    m_stack = mass_matrix(stack, link_inertias(model, stack))
    tau_stack = inverse_dynamics(stack, link_inertias(model, stack), qd[:, None], qdd[:, None])
    assert m_stack.shape == (q.shape[0], 1, model.n, model.n)
    for i in range(q.shape[0]):
        row = link_frames_axes(model, q[i])
        for field in ("rotations", "origins", "motion", "tool_rotation", "tool_position", "jacobian"):
            assert rel_err(getattr(stack, field)[i, 0], getattr(row, field)) <= 1e-13
        assert rel_err(m_stack[i, 0], mass_matrix(row, link_inertias(model, row))) <= 1e-13
        tau_row = inverse_dynamics(row, link_inertias(model, row), qd[i], qdd[i])
        assert rel_err(tau_stack[i, 0], tau_row) <= 1e-13


@PROPERTY_SETTINGS
@given(chains_and_joint_arrays())
def test_pass_matches_the_eager_pass_bit_for_bit(case):
    # the joint-kind masks carried by the model's constants, the in-place
    # sum and the motion columns derived on first read change no bit,
    # signed zeros included, of any field
    model, q = case
    kin = link_frames_axes(model, q)
    want = eager_link_frames_axes(model, q)
    names = [f.name for f in fields(kin)] + ["motion"]
    assert sorted(names) == sorted(want)
    differ = [
        name
        for name in names
        if getattr(kin, name).shape != want[name].shape
        or getattr(kin, name).tobytes() != want[name].tobytes()
    ]
    assert differ == []


@st.composite
def directions(draw):
    """A unit 6-vector, linear and angular parts mixed."""
    u = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 6)))
    assume(np.linalg.norm(u) > 0.1)
    return u / np.linalg.norm(u)


@PROPERTY_SETTINGS
@given(chains_and_stacks(), st.data())
def test_directional_inverse_inertia_matches_the_operational_form(case, data):
    # w^T M^-1 w with w = J^T u equals u^T (J M^-1 J^T) u read off the 6x6
    # oracle, at one configuration and on an (m, 2) stack, for chains of
    # fewer than six joints too (a rank-deficient J M^-1 J^T).  Relative
    # error 1e-12 with an absolute floor of 1e-12 times the largest
    # eigenvalue of J M^-1 J^T: along a direction near the null space of
    # J^T both forms cancel to round-off of that size.
    model, q, _, _ = case
    u = np.array([[data.draw(directions()) for _ in range(2)] for _ in q])
    stack = link_frames_axes(model, q[:, None].repeat(2, axis=1))
    inertias = link_inertias(model, stack)
    lam_inv = operational_mass_inverse(stack, inertias)
    want = np.einsum("...i,...ij,...j->...", u, lam_inv, u)
    floor = np.linalg.eigvalsh(lam_inv)[..., -1]
    tol = 1e-12 * np.maximum(np.abs(want), floor)
    assert np.all(np.abs(directional_inverse_inertia(stack, inertias, u) - want) <= tol)
    one = link_frames_axes(model, q[0])
    got = directional_inverse_inertia(one, link_inertias(model, one), u[0, 0])
    assert got.shape == ()
    assert abs(got - want[0, 0]) <= tol[0, 0]


@st.composite
def link_sets(draw, n):
    """n random link bodies, to put on the joints of a drawn chain."""
    return tuple(
        LinkSpec(mass=draw(st.floats(0.1, 3.0)), com=draw(vectors), inertia=draw(inertia_tensors()))
        for _ in range(n)
    )


@PROPERTY_SETTINGS
@given(chains_and_stacks(), st.data())
def test_dynamics_are_linear_in_the_link_inertias(case, data):
    # RNEA and CRBA read the link inertias linearly (Atkeson, An &
    # Hollerbach, IJRR 1986): on one pass, two bodies' inertias summed give
    # the sum of their torques and of their mass matrices
    model_a, q, qd, qdd = case
    model_b = replace(model_a, links=data.draw(link_sets(model_a.n)))
    kin = link_frames_axes(model_a, q)
    ia, ib = link_inertias(model_a, kin), link_inertias(model_b, kin)
    g = np.array([0.4, -1.2, -9.81])
    tau_a, tau_b = (inverse_dynamics(kin, i, qd, qdd, gravity=g) for i in (ia, ib))
    m_a, m_b = mass_matrix(kin, ia), mass_matrix(kin, ib)
    # relative to at least 1 N m or 1 kg m^2: a torque can vanish exactly
    # while its link forces do not, leaving round-off of their size
    for got, want in (
        (inverse_dynamics(kin, ia + ib, qd, qdd, gravity=g), tau_a + tau_b),
        (mass_matrix(kin, ia + ib), m_a + m_b),
    ):
        assert np.abs(got - want).max() <= 1e-10 * max(np.abs(want).max(), 1.0)


@st.composite
def chains_and_joint_paths(draw):
    """A chain and a straight joint path of 4-8 waypoints, at least 0.05
    long, from a random configuration."""
    model = draw(chains())
    q0 = np.array([draw(angles) for _ in range(model.n)])
    step = np.array([draw(st.floats(-0.3, 0.3)) for _ in range(model.n)])
    assume(np.linalg.norm(step) > 0.05)
    return model, np.linspace(q0, q0 + step, draw(st.integers(4, 8)))


# a scalar agrees within SCENE_RTOL relative plus SCENE_ATOL absolute; the
# absolute part covers scalars at or near 0, such as h_tov ~ 1e-7 on a
# near-singular path, where the relative error of a^2 grows
SCENE_RTOL = 1e-6
SCENE_ATOL = 1e-9


@PROPERTY_SETTINGS
@given(
    chains_and_joint_paths(),
    unit_vectors,
    angles,
    poses(),
    st.floats(0.05, 2.0),
    inertia_tensors(),
)
def test_objectives_invariant_under_scene_rotation(case, axis, angle, grasp_pose, mass, inertia):
    # the task puts the gripper on the chain's FK along the joint path;
    # rotating the base, the task and gravity together changes no scalar
    model, qs = case
    grasp = GraspCandidate("g", grasp_pose)
    obj = LinkSpec(mass=mass, com=np.zeros(3), inertia=inertia)
    release = grasp_pose.inverse()
    task = trajectory_of(
        (pose_of(forward_kinematics(model, q)).compose(release) for q in qs), np.linspace(0.0, 1.0, len(qs))
    )
    world = Pose(Rotation.from_axis_angle(axis, angle), np.zeros(3))
    turned_model = replace(model, base_pose=world.compose(model.base_pose))
    turned_task = TaskTrajectory(
        [unit_quaternion(*quaternion_product(world.rotation.quat, q)) for q in task.quaternions],
        task.translations @ world.rotation.as_matrix().T,
        task.times,
    )
    gravity = np.array([0.0, 0.0, -9.81])

    def card(model, task, gravity):
        return evaluate_grasp(model, task, grasp, obj, path_parameter(task), ik_seed=qs[0], gravity=gravity)

    try:
        base = card(model, task, gravity)
    except (ZeroMotionError, DegenerateModelError):
        assume(False)
    assume(base.feasible and not base.flags["unreachable"].any())
    turned = card(turned_model, turned_task, world.rotation.apply(gravity))
    assert turned.feasible
    for key in ("h_tov", "h_tme", "h_tem"):
        want, got = getattr(base, key), getattr(turned, key)
        assert abs(got - want) <= SCENE_RTOL * abs(want) + SCENE_ATOL, (key, got, want)


@st.composite
def chains_targets_and_seeds(draw):
    """A chain, the pose of a random configuration q0 and an IK seed within
    0.5 of q0 per joint: near enough that most solves converge, far enough
    that some first steps exceed ``ik.MAX_STEP`` and are scaled down."""
    model, q0 = draw(chains_and_configurations())
    offset = np.array([draw(st.floats(-0.5, 0.5)) for _ in range(model.n)])
    return model, forward_kinematics(model, q0), q0 + offset


@PROPERTY_SETTINGS
@given(chains_targets_and_seeds())
def test_converged_solves_match_reference_dls_on_random_chains(case):
    # a solve that meets the tolerances ran no stall check that stopped it,
    # so it must run the reference loop's iterates bit for bit
    model, target, seed = case
    q, _, ok, _ = _solve(model, target, seed)
    assume(ok)
    q_ref, ok_ref = reference_dls(model, pose_of(target), seed)
    assert ok_ref
    assert q.tobytes() == q_ref.tobytes()
