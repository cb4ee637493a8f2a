"""Property tests of the kinematic pass and the dynamics on random serial
chains: 1-7 joints, revolute and prismatic mixed, random joint origins,
base and tool poses and link inertias, at one configuration or a stack."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from postgrasp import (
    ChainModel,
    GraspCandidate,
    JointSpec,
    LinkSpec,
    Pose,
    RigidObject,
    Rotation,
    attach_object,
    augmented_mass_matrix,
    forward_kinematics,
    inverse_dynamics,
    mass_matrix,
)
from postgrasp.chain import link_frames_axes

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

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
        plus, minus = forward_kinematics(model, q + dq), forward_kinematics(model, q - dq)
        linear = (plus.translation - minus.translation) / (2 * h)
        angular = (plus.rotation * minus.rotation.inverse()).log() / (2 * h)
        assert np.abs(jac[:3, k] - linear).max() <= 1e-7
        assert np.abs(jac[3:, k] - angular).max() <= 1e-7


@PROPERTY_SETTINGS
@given(chains_and_configurations())
def test_mass_matrix_symmetric_positive_definite(case):
    model, q = case
    kin = link_frames_axes(model, q)
    m = mass_matrix(model, kin)
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
    m = mass_matrix(model, kin)
    zero = np.zeros(model.n)
    cols = np.column_stack(
        [inverse_dynamics(model, kin, zero, e, gravity=np.zeros(3)) for e in np.eye(model.n)]
    )
    assert rel_err(cols, m) <= 1e-12


@PROPERTY_SETTINGS
@given(chains_and_configurations(), poses(), st.floats(0.05, 2.0), inertia_tensors())
def test_merged_object_matches_augmented_mass_matrix(case, grasp_pose, mass, inertia):
    model, q = case
    grasp = GraspCandidate("g", grasp_pose)
    obj = RigidObject(mass=mass, inertia=inertia)
    merged = mass_matrix(attach_object(model, grasp, obj), link_frames_axes(model, q))
    assert rel_err(merged, augmented_mass_matrix(model, q, grasp, obj)) <= 1e-12


@PROPERTY_SETTINGS
@given(chains_and_stacks())
def test_stacked_configurations_match_rows(case):
    # leading axes (m, 1): the pass, CRBA and RNEA on a stack agree with
    # one call per configuration
    model, q, qd, qdd = case
    stack = link_frames_axes(model, q[:, None])
    m_stack = mass_matrix(model, stack)
    tau_stack = inverse_dynamics(model, stack, qd[:, None], qdd[:, None])
    assert m_stack.shape == (q.shape[0], 1, model.n, model.n)
    for i in range(q.shape[0]):
        row = link_frames_axes(model, q[i])
        for field in ("rotations", "origins", "motion", "tool_rotation", "tool_position", "jacobian"):
            assert rel_err(getattr(stack, field)[i, 0], getattr(row, field)) <= 1e-13
        assert rel_err(m_stack[i, 0], mass_matrix(model, row)) <= 1e-13
        assert rel_err(tau_stack[i, 0], inverse_dynamics(model, row, qd[i], qdd[i])) <= 1e-13
