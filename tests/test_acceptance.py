"""Acceptance suite: one test per release criterion, run by plain pytest.

Each test prints a single PASS line (visible with ``pytest -s``) after its
assertions hold; tolerances are fixed here, not configurable.  The two
Monte-Carlo sweeps are computed once in session fixtures and reused; the
determinism criterion recomputes them from scratch and compares bytes.
"""

import time

import numpy as np
import pytest

import handeye.simulate as sim
from handeye import quaternion as quat
from handeye.cli import report_csv
from handeye.errors import CalibrationError, IllConditionedError, TooFewMotionsError
from handeye.geometry import RigidMotion, compose
from handeye.simulate import (
    Distribution,
    Formulation,
    NoiseTargets,
    default_scenario,
    motion_count_sweep,
    noise_sweep,
    perspective_scenario,
)
from handeye.solvers import (
    Method,
    axis_alignment_matrix,
    build_quadratic,
    objective_value,
    solve,
)

from conftest import (
    consistent_constraints,
    constraint_set,
    parallel_axis_constraints,
    random_motion,
    random_unit_quaternion,
)

GRID_SCENARIO_SEED = 0
GRID_LEVELS = (0.01, 0.02, 0.03, 0.04, 0.05, 0.06)
GRID_TRIALS = 1000
COUNT_SCENARIO_SEED = 6
COUNT_TRIALS = 1000


def _ok(number: int, text: str) -> None:
    print(f"criterion {number:02d} PASS: {text}")


def _noise_free_constraints(scenario):
    stream = sim._generator(0, 0, 0)
    return sim.trial_constraints(scenario, Distribution.GAUSSIAN, 0.0, 0.0, stream)


def _run_level_grid():
    scenario = default_scenario(2, GRID_SCENARIO_SEED)
    grid = [
        (distribution, targets)
        for distribution in (Distribution.UNIFORM, Distribution.GAUSSIAN)
        for targets in (NoiseTargets.ROTATION, NoiseTargets.ROTATION_AND_TRANSLATION)
    ]
    return dict(zip(grid, noise_sweep(scenario, GRID_LEVELS, grid, GRID_TRIALS, 0)))


def _run_count_sweep():
    # the study's noise: 6 % on rotation axes, 2 % on translations
    assert (sim.COUNT_ROTATION_LEVEL, sim.COUNT_TRANSLATION_LEVEL) == (0.06, 0.02)
    return motion_count_sweep(
        [default_scenario(n, COUNT_SCENARIO_SEED) for n in range(2, 10)],
        [(Distribution.GAUSSIAN, NoiseTargets.ROTATION_AND_TRANSLATION)],
        COUNT_TRIALS,
        COUNT_SCENARIO_SEED,
    )[0]


@pytest.fixture(scope="session")
def level_grid():
    start = time.perf_counter()
    reports = _run_level_grid()
    return reports, time.perf_counter() - start


@pytest.fixture(scope="session")
def count_sweep():
    return _run_count_sweep()


def test_criterion_01_quaternion_identities():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    r = rng.normal(size=(10000, 4))
    q = rng.normal(size=(10000, 4))
    qr = quat.q_matrix(r)
    wr = quat.w_matrix(r)
    qq = quat.q_matrix(q)
    wq = quat.w_matrix(q)
    nr = quat.norm2(r)[:, None, None]
    eye = np.eye(4)

    def worst(delta):
        return float(np.max(np.abs(delta)))

    scale = float(np.max(nr))
    assert worst(np.einsum("nji,njk->nik", qr, qr) - nr * eye) <= 1e-12 * scale
    assert worst(np.einsum("nij,nkj->nik", qr, qr) - nr * eye) <= 1e-12 * scale
    assert worst(np.einsum("nji,njk->nik", wr, wr) - nr * eye) <= 1e-12 * scale
    # left and right operators commute through transposition
    assert worst(qr @ wq.transpose(0, 2, 1) - wq.transpose(0, 2, 1) @ qr) <= 1e-12 * scale
    # product expressed through either operator
    prod_left = np.einsum("nij,nj->ni", qr, q)
    prod_right = np.einsum("nij,nj->ni", wq, r)
    assert worst(prod_left - prod_right) <= 1e-12 * scale
    # norm of a product multiplies
    assert float(
        np.max(np.abs(quat.norm2(prod_left) - quat.norm2(r) * quat.norm2(q)))
    ) <= 1e-12 * scale**2
    # the sandwich operator of a unit quaternion is orthogonal
    u = q / np.linalg.norm(q, axis=1, keepdims=True)
    sandwich = np.einsum("nji,njk->nik", quat.w_matrix(u), quat.q_matrix(u))
    assert worst(np.einsum("nji,njk->nik", sandwich, sandwich) - eye) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _ok(1, f"algebra identities at 1e-12 over 10^4 inputs in {elapsed:.2f}s")


def test_criterion_02_noise_free_exact_recovery():
    start = time.perf_counter()
    worst_rot = worst_tr = 0.0
    for seed in range(500):
        n = 2 + seed % 8
        if seed % 2 == 0:
            scenario = default_scenario(n, seed)
        else:
            scenario = perspective_scenario(n, seed)
        constraints = _noise_free_constraints(scenario)
        truth = scenario.ground_truth
        for method in Method:
            sol = solve(method, constraints)
            rot = float(np.linalg.norm(sol.rotation_matrix - truth.rotation))
            tr = float(
                np.linalg.norm(sol.translation - truth.translation)
                / np.linalg.norm(truth.translation)
            )
            worst_rot = max(worst_rot, rot)
            worst_tr = max(worst_tr, tr)
    elapsed = time.perf_counter() - start
    assert worst_rot <= 1e-8
    assert worst_tr <= 1e-7
    assert elapsed < 30.0
    _ok(2, f"500 scenarios, worst rotation {worst_rot:.2e}, "
           f"worst translation {worst_tr:.2e}, {elapsed:.1f}s")


def test_criterion_03_formulation_equivalence():
    worst = 0.0
    for seed in range(100):
        classical = default_scenario(3, seed)
        persp = perspective_scenario(3, seed)
        constraints = _noise_free_constraints(persp)
        sol = solve(Method.CLOSED_FORM, constraints)
        estimated = RigidMotion(sol.rotation_matrix, sol.translation)
        recovered = compose(RigidMotion.from_matrix(classical.camera_poses[0]), estimated)
        worst = max(worst, float(np.linalg.norm(recovered.matrix - classical.ground_truth.matrix)))
    assert worst <= 1e-8
    _ok(3, f"first-pose-relative solution matches the plain transform, worst {worst:.2e}")


def test_criterion_04_quadratic_identity():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        q = random_unit_quaternion(rng)
        r3 = quat.to_rotation_matrix(q)
        constraints = []
        for _ in range(int(rng.integers(2, 6))):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            rb = quat.to_rotation_matrix(random_unit_quaternion(rng))
            constraints.append(
                dict(
                    camera_rotation=r3 @ rb @ r3.T,
                    hand_rotation=rb,
                    camera_axis=axis,
                    hand_axis=axis,
                    camera_translation=rng.normal(size=3) * 300,
                    hand_translation=rng.normal(size=3) * 300,
                )
            )
        constraints = constraint_set(constraints)
        t = rng.normal(size=3) * 250
        direct = objective_value(constraints, q, t)
        quadratic = build_quadratic(constraints).evaluate(q, t)
        worst = max(worst, abs(quadratic - direct) / max(abs(direct), 1e-300))
    assert worst <= 1e-9
    _ok(4, f"quadratic form equals the summed objective, worst relative {worst:.2e}")


def test_criterion_05_closed_form_optimality():
    rng = np.random.default_rng(5)
    for seed in range(50):
        scenario = default_scenario(3, seed)
        stream = sim._generator(seed, 0, 0)
        constraints = sim.trial_constraints(scenario, Distribution.GAUSSIAN, 0.06, 0.02, stream)
        coeff = axis_alignment_matrix(constraints)
        sol = solve(Method.CLOSED_FORM, constraints)
        achieved = float(sol.rotation @ coeff @ sol.rotation)
        samples = rng.normal(size=(10000, 4))
        samples /= np.linalg.norm(samples, axis=1, keepdims=True)
        sampled_min = float(np.min(np.einsum("ni,ij,nj->n", samples, coeff, samples)))
        assert achieved <= sampled_min + 1e-12
    _ok(5, "closed-form rotation beats 10^4 random unit quaternions on all 50 instances")


def test_criterion_06_degeneracy_never_silent():
    rng = np.random.default_rng(6)
    silent = 0
    cases = 0
    for i in range(100):
        truth = random_motion(rng, 150.0)
        if i % 2 == 0:
            constraints = consistent_constraints(rng, truth, 1)
        else:
            constraints = parallel_axis_constraints(rng, truth, int(rng.integers(2, 5)))
        for method in Method:
            cases += 1
            try:
                solve(method, constraints)
                silent += 1
            except (TooFewMotionsError, IllConditionedError):
                pass
    assert silent == 0
    _ok(6, f"{cases} degenerate solves all rejected explicitly")


def test_criterion_07_nonlinear_leads_everywhere(level_grid):
    reports, elapsed = level_grid
    worst_ratio = 0.0
    for (distribution, targets), report in reports.items():
        rows = {(row.sweep_var, row.method): row for row in report}
        for level in GRID_LEVELS:
            nl = rows[(level, Method.NONLINEAR)]
            best_rot = min(
                rows[(level, Method.TSAI_LENZ)].e_rot, rows[(level, Method.CLOSED_FORM)].e_rot
            )
            best_tr = min(
                rows[(level, Method.TSAI_LENZ)].e_tr, rows[(level, Method.CLOSED_FORM)].e_tr
            )
            worst_ratio = max(worst_ratio, nl.e_rot / best_rot, nl.e_tr / best_tr)
            assert nl.e_rot <= 1.05 * best_rot, (distribution, targets, level)
            assert nl.e_tr <= 1.05 * best_tr, (distribution, targets, level)
    assert elapsed < 300.0
    _ok(7, f"simultaneous estimate within 1.05x of the best at all 24 grid points "
           f"(worst ratio {worst_ratio:.3f}, grid in {elapsed:.0f}s)")


def test_criterion_08_motion_count_point_values(count_sweep):
    rows = {(int(r.sweep_var), r.method): r for r in count_sweep}
    nl4 = rows[(4, Method.NONLINEAR)].e_tr
    tl4 = rows[(4, Method.TSAI_LENZ)].e_tr
    cf4 = rows[(4, Method.CLOSED_FORM)].e_tr
    assert 0.02 <= nl4 <= 0.06
    assert 0.045 <= tl4 <= 0.085
    assert 0.045 <= cf4 <= 0.085
    worst_track = 0.0
    for n in range(2, 10):
        tl = rows[(n, Method.TSAI_LENZ)].e_tr
        cf = rows[(n, Method.CLOSED_FORM)].e_tr
        worst_track = max(worst_track, abs(tl - cf) / min(tl, cf))
    assert worst_track <= 0.15
    _ok(8, f"n=4 translation errors: simultaneous {nl4:.3f}, linear {tl4:.3f}/{cf4:.3f}; "
           f"linear methods track within {worst_track * 100:.1f}%")


def test_criterion_09_errors_shrink_with_motions(count_sweep):
    rows = {(int(r.sweep_var), r.method): r for r in count_sweep}
    for method in (Method.TSAI_LENZ, Method.CLOSED_FORM, Method.NONLINEAR):
        assert rows[(9, method)].e_tr < rows[(2, method)].e_tr
    _ok(9, "translation error at n=9 below n=2 for every method")


def test_criterion_10_deterministic_reports(level_grid, count_sweep):
    first_reports, _ = level_grid
    second_reports = _run_level_grid()
    for key, report in first_reports.items():
        assert report_csv(report) == report_csv(second_reports[key])
    assert report_csv(count_sweep) == report_csv(_run_count_sweep())
    _ok(10, "repeated sweeps produce byte-identical CSV")


def test_criterion_11_single_solve_under_50ms():
    scenario = default_scenario(10, 3)
    constraints = _noise_free_constraints(scenario)
    timings = {}
    for method in Method:
        best = np.inf
        for _ in range(3):
            start = time.perf_counter()
            solve(method, constraints)
            best = min(best, time.perf_counter() - start)
        timings[method.value] = best
        assert best < 0.050, (method.value, best)
    summary = ", ".join(f"{k} {v * 1e3:.1f}ms" for k, v in timings.items())
    _ok(11, f"n=10 solve times: {summary}")
