"""Rank grasp candidates on a rigid object by three path-integral
objectives along a given post-grasp trajectory: task-oriented velocity
manipulability (maximize), torque effort (minimize) and effective mass
(minimize), with Pareto-front extraction when they conflict."""

from .chain import (
    ChainModel,
    JointSpec,
    LinkSpec,
    forward_kinematics,
    geometric_jacobian,
)
from .dynamics import (
    DegenerateModelError,
    attach_object,
    augmented_mass_matrix,
    directional_inverse_inertia,
    inverse_dynamics,
    link_inertias,
    mass_matrix,
)
from .fileio import (
    SchemaError,
    load_robot,
    load_task,
    reference_robot_path,
    reference_task_path,
)
from .geometry import Pose, Rotation
from .ik import (
    GraspInfeasible,
    track_trajectory,
)
from .metrics import (
    GraspScorecard,
    ZeroMotionError,
    directional_manipulability,
    evaluate_grasp,
    evaluate_task,
    tem,
    torque_effort,
    tov,
)
from .ranking import (
    build_report,
    normalize,
    scalarize,
)
from .task import (
    GraspCandidate,
    TaskTrajectory,
    generate_grasp_sweep,
    gripper_trajectory,
    path_parameter,
    resample,
)

__version__ = "0.1.0"
