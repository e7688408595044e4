"""The two problem formulations side by side.

The classical route needs each camera pose, i.e. the perspective matrix
already decomposed into intrinsic and extrinsic parts.  The alternative
consumes the raw 3x4 matrices directly: the relative motion two of them
encode is recovered without ever separating the intrinsics, and the
estimated transform is then referenced to the first camera position.

Run:  python demos/03_perspective_formulation.py
"""

import numpy as np

from handeye.geometry import (
    PerspectiveMatrix,
    RigidMotion,
    classical_constraints,
    compose,
    invert,
    line_of_sight,
    perspective_constraints,
    project_point,
)
from handeye.simulate import default_scenario, perspective_scenario
from handeye.solvers import solve_nonlinear

np.set_printoptions(precision=4, suppress=True)

SEED = 21
classical = default_scenario(4, SEED)  # camera poses, a (5, 4, 4) stack
persp = perspective_scenario(4, SEED)  # same poses times one intrinsic block, (5, 3, 4)

# Rebuild the (5, 4, 4) stack of absolute hand poses from the scenario's
# noise-free hand motions (gauge: first = identity).  Classical motions
# chain consecutive positions; perspective ones all start at position 1.
def hand_poses_for(scenario, first_referenced):
    rotation, translation = scenario.motion_arrays  # (n, 2, ...), hand motion second
    poses = [RigidMotion.identity()]
    for r, t in zip(rotation[:, 1], translation[:, 1]):
        anchor = poses[0] if first_referenced else poses[-1]
        poses.append(compose(anchor, invert(RigidMotion(r, t))))
    return np.stack([pose.matrix for pose in poses])

classical_sol = solve_nonlinear(
    classical_constraints(classical.camera_poses, hand_poses_for(classical, False))
)
persp_sol = solve_nonlinear(
    perspective_constraints(persp.camera_poses, hand_poses_for(persp, True))
)

x_est = RigidMotion(classical_sol.rotation_matrix, classical_sol.translation)
y_est = RigidMotion(persp_sol.rotation_matrix, persp_sol.translation)
print("plain transform (hand -> camera), translation mm:")
print("  from decomposed poses:   ", x_est.translation)
# The first-referenced estimate differs by the first camera pose exactly.
lifted = compose(RigidMotion.from_matrix(classical.camera_poses[0]), y_est)
print("  from raw 3x4 matrices:   ", lifted.translation)
print("  ground truth:            ", classical.ground_truth.translation)
print("  agreement (Frobenius):    "
      f"{np.linalg.norm(lifted.matrix - x_est.matrix):.2e}")

# The raw matrices still answer geometric questions without decomposition:
# project a point and intersect the two image planes back into a ray.
m = PerspectiveMatrix.from_matrix(persp.camera_poses[0])
target = np.array([40.0, -25.0, 710.0])
u, v = project_point(m, target)
ray = line_of_sight(m, u, v)
gap = target - ray.point
gap -= (gap @ ray.direction) * ray.direction
print(f"\nimage of a 3-D point: ({u:.2f}, {v:.2f}) px")
print(f"line of sight passes {np.linalg.norm(gap):.2e} mm from the point")
