"""Calibrate a synthetic rig with all three solvers and compare.

A random scenario fixes the true hand-eye transform; the hand motions are
derived so the problem is exactly consistent, then a little noise is
injected to make the comparison interesting.

Run:  python demos/02_calibrate_synthetic.py
"""

import numpy as np

from handeye import quaternion as quat
from handeye.simulate import Distribution, default_scenario, trial_constraints
from handeye.solvers import solve_closed_form, solve_nonlinear, solve_tsai_lenz

np.set_printoptions(precision=4, suppress=True)

scenario = default_scenario(n=5, seed=12)
truth = scenario.ground_truth
print("true rotation (quaternion):", quat.from_rotation_matrix(truth.rotation))
print("true translation (mm):     ", truth.translation)

for label, rot_noise, trans_noise in (("noise-free", 0.0, 0.0), ("2% noise", 0.02, 0.02)):
    constraints = trial_constraints(
        scenario, Distribution.GAUSSIAN, rot_noise, trans_noise, np.random.default_rng(99)
    )
    print(f"\n--- {label} ({len(constraints)} motions) ---")
    print(f"{'method':12s} {'rot err':>10s} {'tr err %':>10s} {'rot metric':>12s} "
          f"{'tr metric':>12s} {'iters':>6s}")
    for solver in (solve_tsai_lenz, solve_closed_form, solve_nonlinear):
        sol = solver(constraints)
        rot_err = np.linalg.norm(sol.rotation_matrix - truth.rotation)
        tr_err = 100 * np.linalg.norm(sol.translation - truth.translation) / np.linalg.norm(
            truth.translation
        )
        print(f"{sol.method.value:12s} {rot_err:10.2e} {tr_err:10.3f} "
              f"{sol.rotation_residual:12.3e} {sol.translation_residual:12.3e} "
              f"{sol.iterations:6d}")

print("\nThe two residual columns are the report metrics: the summed squared")
print("rotation-equation error and the relative translation-equation error.")
