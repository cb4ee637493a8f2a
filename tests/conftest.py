from __future__ import annotations

import numpy as np
import pytest

from postgrasp import ChainModel, JointSpec, LinkSpec, Pose, Rotation, load_robot, reference_robot_path

from oracles import TwoRParams


def make_two_r(params: TwoRParams) -> ChainModel:
    """Production chain matching the 2R oracle: revolute-z joints in the
    x-y plane, point masses at the link tips."""
    zero_inertia = np.zeros((3, 3))
    return ChainModel(
        joints=(
            JointSpec(kind="revolute", axis=(0, 0, 1), origin=Pose.identity()),
            JointSpec(kind="revolute", axis=(0, 0, 1), origin=Pose(Rotation.identity(), (params.l1, 0, 0))),
        ),
        links=(
            LinkSpec(mass=params.m1, com=(params.l1, 0, 0), inertia=zero_inertia),
            LinkSpec(mass=params.m2, com=(params.l2, 0, 0), inertia=zero_inertia),
        ),
        tool_transform=Pose(Rotation.identity(), (params.l2, 0, 0)),
        name="two-r-test",
    )


@pytest.fixture
def two_r_params() -> TwoRParams:
    return TwoRParams(l1=1.0, l2=0.7, m1=1.3, m2=0.8)


@pytest.fixture
def two_r_model(two_r_params) -> ChainModel:
    return make_two_r(two_r_params)


@pytest.fixture(scope="session")
def planar_rr() -> ChainModel:
    return load_robot(reference_robot_path("planar_rr"))


@pytest.fixture(scope="session")
def arm7() -> ChainModel:
    return load_robot(reference_robot_path("arm7"))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)

