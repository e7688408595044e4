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
    RigidMotion,
    classical_constraints,
    compose,
    perspective_constraints,
)
from handeye.simulate import default_scenario, perspective_scenario
from handeye.solvers import solve_nonlinear

np.set_printoptions(precision=4, suppress=True)

SEED = 21
classical = default_scenario(4, SEED)  # camera poses, a (5, 4, 4) stack
persp = perspective_scenario(4, SEED)  # same poses times one intrinsic block, (5, 3, 4)

# Each scenario integrates its noise-free motions back into (5, ...) stacks
# of camera entries and absolute hand poses (gauge: first hand pose =
# identity).  Classical motions chain consecutive positions; perspective
# ones all start at position 1.
classical_sol = solve_nonlinear(
    classical_constraints(*classical.positions(*classical.motion_arrays))
)
persp_sol = solve_nonlinear(perspective_constraints(*persp.positions(*persp.motion_arrays)))

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
