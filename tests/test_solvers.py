import dataclasses

import numpy as np
import pytest

import handeye.simulate as sim
import handeye.solvers as solvers
from handeye import quaternion as quat
from handeye.errors import (
    CalibrationError,
    IllConditionedError,
    TooFewMotionsError,
    ZeroTranslationError,
)
from handeye.geometry import ConstraintSet, RigidMotion
from handeye.solvers import (
    Method,
    axis_alignment_matrix,
    build_quadratic,
    objective_value,
    report_residuals,
    solve,
    translation_span,
)

from conftest import (
    consistent_constraints,
    constraint_set,
    parallel_axis_constraints,
    random_motion,
    random_rotation,
    random_unit_quaternion,
    rodrigues,
)


def _noisy(cs, rng, level=0.03):
    """Crude perturbation for tests that need inconsistent data."""
    def jiggle(axis):
        v = axis + rng.normal(size=3) * level
        return v / np.linalg.norm(v)

    return constraint_set(
        [
            dict(
                camera_rotation=cs.camera_rotation[i] @ rodrigues(jiggle([0, 0, 1.0]), level),
                hand_rotation=cs.hand_rotation[i] @ rodrigues(jiggle([0, 1.0, 0]), level),
                camera_axis=jiggle(cs.camera_axis[i]),
                hand_axis=jiggle(cs.hand_axis[i]),
                camera_translation=cs.camera_translation[i] + rng.normal(size=3) * level * 100,
                hand_translation=cs.hand_translation[i] + rng.normal(size=3) * level * 100,
            )
            for i in range(len(cs))
        ]
    )


def _recovery_errors(solution, truth):
    rot = np.linalg.norm(solution.rotation_matrix - truth.rotation)
    tr = np.linalg.norm(solution.translation - truth.translation) / np.linalg.norm(
        truth.translation
    )
    return rot, tr


# ---------------------------------------------------------------------------
# least-squares kernel

def test_least_squares_matches_lstsq_and_gates_the_condition_number(rng):
    # Systems with condition numbers 1 to 1e10, consistent up to small
    # noise; np.linalg.lstsq solved one at a time is the reference.
    conds = 10.0 ** np.arange(11)
    u = np.linalg.qr(rng.normal(size=(len(conds), 12, 3)))[0]
    v = np.linalg.qr(rng.normal(size=(len(conds), 3, 3)))[0]
    a = u * np.stack([np.ones_like(conds), conds**-0.5, 1 / conds], axis=-1)[:, None] @ v
    b = (a @ rng.normal(size=(len(conds), 3, 1)))[..., 0]
    b += 1e-6 * rng.normal(size=b.shape)
    fail = solvers._Failures.none(len(conds))
    x = solvers._least_squares(np.linalg.svd(a, full_matrices=False), b, "test system", fail)
    ok = conds <= solvers.CONDITION_LIMIT
    assert list(fail.ok) == list(ok)
    for j in np.flatnonzero(~ok):
        assert np.isnan(x[j]).all()
        assert isinstance(fail.errors[j], IllConditionedError)
        assert str(fail.errors[j]) == (
            f"test system: condition number {conds[j]:.2e} exceeds 1e+08"
        )
    for j in np.flatnonzero(ok):
        expected = np.linalg.lstsq(a[j], b[j], rcond=None)[0]
        # a backward-stable solve of either kind: error ~ cond * eps
        assert np.linalg.norm(x[j] - expected) <= 50 * conds[j] * 2.2e-16 * np.linalg.norm(expected)


# ---------------------------------------------------------------------------
# translation step

def _translation_ls(cs, rotation):
    """Least-squares translation of one problem at a fixed rotation; raises
    the problem's error."""
    fail = solvers._Failures.none(1)
    one = solvers._one(cs)
    q = np.asarray(rotation, dtype=float)[None]
    t = solvers._translation_ls(one, solvers._translation_svd(one), q, fail)
    if fail.errors[0] is not None:
        raise fail.errors[0]
    return t[0]


def test_translation_ls_recovers_truth(rng):
    truth = random_motion(rng, 150.0)
    cons = consistent_constraints(rng, truth, 3)
    q = quat.from_rotation_matrix(truth.rotation)
    t = _translation_ls(cons, q)
    assert np.linalg.norm(t - truth.translation) / np.linalg.norm(truth.translation) < 1e-9


def test_translation_ls_identity_camera_rotations_rejected(rng):
    cons = constraint_set([
        dict(
            camera_rotation=np.eye(3),
            hand_rotation=random_rotation(rng),
            camera_axis=np.array([1.0, 0, 0]),
            hand_axis=np.array([0.0, 1.0, 0]),
            camera_translation=rng.normal(size=3),
            hand_translation=rng.normal(size=3),
        )
        for _ in range(3)
    ])
    with pytest.raises(IllConditionedError):
        _translation_ls(cons, quat.IDENTITY)


def test_translation_ls_single_constraint_rejected(rng):
    truth = random_motion(rng, 150.0)
    cons = consistent_constraints(rng, truth, 1)
    with pytest.raises(IllConditionedError):
        _translation_ls(cons, quat.from_rotation_matrix(truth.rotation))


# ---------------------------------------------------------------------------
# linear two-step solver

def test_tsai_lenz_pure_translation_gives_identity_rotation(rng):
    # camera and hand axes agree, so the scaled-axis system solves to zero
    truth = RigidMotion(np.eye(3), rng.normal(size=3) * 120)
    cons = consistent_constraints(rng, truth, 3)
    assert np.allclose(cons.camera_axis, cons.hand_axis, atol=1e-12)
    sol = solve(Method.TSAI_LENZ, cons)
    assert np.allclose(sol.rotation, quat.IDENTITY, atol=1e-9)


def test_tsai_lenz_exact_recovery(rng):
    for _ in range(20):
        truth = random_motion(rng, 150.0)
        cons = consistent_constraints(rng, truth, 2)
        sol = solve(Method.TSAI_LENZ, cons)
        rot, tr = _recovery_errors(sol, truth)
        assert rot < 1e-9
        assert tr < 1e-9
        assert sol.iterations == 0
        assert sol.method is Method.TSAI_LENZ


def test_tsai_lenz_large_angle(rng):
    axis = np.array([0.0, 0.0, 1.0])
    truth = RigidMotion(rodrigues(axis, np.radians(170.0)), rng.normal(size=3) * 100)
    cons = consistent_constraints(rng, truth, 3)
    rot, tr = _recovery_errors(solve(Method.TSAI_LENZ, cons), truth)
    assert rot < 1e-8
    assert tr < 1e-7


def test_tsai_lenz_too_few_and_parallel(rng):
    truth = random_motion(rng, 150.0)
    with pytest.raises(TooFewMotionsError):
        solve(Method.TSAI_LENZ, consistent_constraints(rng, truth, 1))
    with pytest.raises(IllConditionedError):
        solve(Method.TSAI_LENZ, parallel_axis_constraints(rng, truth, 2))


# ---------------------------------------------------------------------------
# closed form

def test_closed_form_aligned_axes_identity():
    cons = []
    for axis in (np.array([1.0, 0, 0]), np.array([0.0, 1.0, 0])):
        r = rodrigues(axis, 0.8)
        cons.append(
            dict(
                camera_rotation=r,
                hand_rotation=r,
                camera_axis=axis,
                hand_axis=axis,
                camera_translation=np.array([10.0, -5.0, 2.0]),
                hand_translation=np.array([4.0, 8.0, -3.0]),
            )
        )
    cons = constraint_set(cons)
    sol = solve(Method.CLOSED_FORM, cons)
    assert np.allclose(sol.rotation, quat.IDENTITY, atol=1e-10)
    vals, _ = np.linalg.eigh(axis_alignment_matrix(cons))
    assert vals[0] == pytest.approx(0.0, abs=1e-12)


def test_closed_form_exact_recovery(rng):
    for _ in range(20):
        truth = random_motion(rng, 150.0)
        sol = solve(Method.CLOSED_FORM, consistent_constraints(rng, truth, 2))
        rot, tr = _recovery_errors(sol, truth)
        assert rot < 1e-9
        assert tr < 1e-9


def test_closed_form_single_constraint_rejected(rng):
    # one axis pair leaves a two-dimensional space of minimizers
    truth = random_motion(rng, 150.0)
    cons = consistent_constraints(rng, truth, 1)
    vals, _ = np.linalg.eigh(axis_alignment_matrix(cons))
    assert vals[1] - vals[0] < 1e-9
    with pytest.raises(IllConditionedError):
        solve(Method.CLOSED_FORM, cons)


def test_closed_form_parallel_axes_rejected(rng):
    truth = random_motion(rng, 150.0)
    with pytest.raises(IllConditionedError):
        solve(Method.CLOSED_FORM, parallel_axis_constraints(rng, truth, 3))


def test_axis_alignment_quadratic_matches_direct_sum(rng):
    for _ in range(100):
        truth = random_motion(rng, 150.0)
        cons = _noisy(consistent_constraints(rng, truth, 3), rng)
        coeff = axis_alignment_matrix(cons)
        q = random_unit_quaternion(rng)
        direct = float(np.sum((cons.camera_axis - quat.rotate_vector(q, cons.hand_axis)) ** 2))
        assert q @ coeff @ q == pytest.approx(direct, rel=1e-10)


def test_closed_form_rotation_residual_consistency(rng):
    truth = random_motion(rng, 150.0)
    cons = _noisy(consistent_constraints(rng, truth, 4), rng)
    sol = solve(Method.CLOSED_FORM, cons)
    coeff = axis_alignment_matrix(cons)
    rotated = quat.rotate_vector(sol.rotation, cons.hand_axis)
    direct = float(np.sum((cons.camera_axis - rotated) ** 2))
    assert sol.rotation @ coeff @ sol.rotation == pytest.approx(direct, abs=1e-9)


def test_closed_form_beats_random_quaternions(rng):
    truth = random_motion(rng, 150.0)
    cons = _noisy(consistent_constraints(rng, truth, 3), rng)
    coeff = axis_alignment_matrix(cons)
    sol = solve(Method.CLOSED_FORM, cons)
    best = float(sol.rotation @ coeff @ sol.rotation)
    qs = rng.normal(size=(10000, 4))
    qs /= np.linalg.norm(qs, axis=1, keepdims=True)
    sampled = np.einsum("ni,ij,nj->n", qs, coeff, qs)
    assert best <= sampled.min() + 1e-12


# ---------------------------------------------------------------------------
# quadratic form of the coupled objective

def _zero_translation_set():
    return constraint_set([
        dict(
            camera_rotation=np.eye(3),
            hand_rotation=np.eye(3),
            camera_axis=np.array([1.0, 0, 0]),
            hand_axis=np.array([0.0, 1.0, 0]),
            camera_translation=np.zeros(3),
            hand_translation=np.zeros(3),
        )
        for _ in range(2)
    ])


def test_build_quadratic_zero_data_gives_zero_blocks():
    cons = _zero_translation_set()
    quad = build_quadratic(cons)
    # only the axis term is left
    assert np.array_equal(quad.rotation_quad, axis_alignment_matrix(cons))
    assert np.allclose(quad.translation_quad, np.zeros((3, 3)), atol=1e-15)
    assert np.allclose(quad.translation_linear, np.zeros(3), atol=1e-15)
    assert np.allclose(quad.coupling, np.zeros(4), atol=1e-15)


def _paper_alignment(camera, hand):
    """The paper's form sum_n (Q(v'_n) - W(v_n))' (Q(v'_n) - W(v_n)), whose
    quadratic form at a unit q is sum_n |v'_n - q v_n q*|^2."""
    d = quat.q_matrix(quat.embed(camera)) - quat.w_matrix(quat.embed(hand))
    return np.einsum("...nji,...njk->...ik", d, d)


def _paper_rotation_quad(cs):
    """The rotation block of the closed quadratic form, from the sandwich
    operators: the axis form plus (|p|^2 + |p'|^2) I - cross - cross'."""
    p, pp = cs.hand_translation, cs.camera_translation
    cross = np.einsum(
        "nji,njk->ik", quat.w_matrix(quat.embed(p)), quat.q_matrix(quat.embed(pp))
    )
    squares = float(np.sum(p * p) + np.sum(pp * pp))
    return _paper_alignment(cs.camera_axis, cs.hand_axis) + (
        squares * np.eye(4) - cross - cross.T
    )


@pytest.mark.parametrize(
    "batch",
    [
        pytest.param(lambda: solvers._one(_zero_translation_set()), id="zero-translation"),
        pytest.param(lambda: _sweep_batch(sim.default_scenario, 2, 1), id="classical-2-J1"),
        pytest.param(lambda: _sweep_batch(sim.default_scenario, 9, 12), id="classical-9"),
        pytest.param(lambda: _sweep_batch(sim.perspective_scenario, 5, 12), id="perspective-5"),
    ],
)
def test_forms_table_matrices_equal_the_papers_operator_forms(batch):
    cs = batch()
    coeff = axis_alignment_matrix(cs)
    paper = _paper_alignment(cs.camera_axis, cs.hand_axis)
    for j in range(len(coeff)):
        assert np.max(np.abs(coeff[j] - paper[j])) <= 1e-12 * np.max(np.abs(paper[j]))
        one = ConstraintSet(*(a[j] for a in cs.arrays))
        quad, reference = build_quadratic(one).rotation_quad, _paper_rotation_quad(one)
        assert np.max(np.abs(quad - reference)) <= 1e-12 * np.max(np.abs(reference))


def test_quadratic_vanishes_at_ground_truth(rng):
    truth = random_motion(rng, 150.0)
    cons = consistent_constraints(rng, truth, 3)
    quad = build_quadratic(cons)
    q = quat.from_rotation_matrix(truth.rotation)
    # coefficient blocks hold squared-mm terms, so cancellation leaves ~1e-10
    assert abs(quad.evaluate(q, truth.translation)) <= 1e-9


def test_quadratic_matches_direct_sum(rng):
    # The coupling row relies on the similarity relation between the two
    # rotations, so the evaluation quaternion must be the one conjugating
    # hand rotations into camera rotations; everything else is free.
    worst = 0.0
    for _ in range(100):
        q = random_unit_quaternion(rng)
        r3 = quat.to_rotation_matrix(q)
        cons = []
        for _ in range(int(rng.integers(2, 6))):
            rb = random_rotation(rng)
            axis = rng.normal(size=3)
            cons.append(
                dict(
                    camera_rotation=r3 @ rb @ r3.T,
                    hand_rotation=rb,
                    camera_axis=axis / np.linalg.norm(axis),
                    hand_axis=axis / np.linalg.norm(axis),
                    camera_translation=rng.normal(size=3) * 200,
                    hand_translation=rng.normal(size=3) * 200,
                )
            )
        cons = constraint_set(cons)
        t = rng.normal(size=3) * 250
        direct = objective_value(cons, q, t)
        quadratic = build_quadratic(cons).evaluate(q, t)
        worst = max(worst, abs(quadratic - direct) / max(abs(direct), 1e-300))
    assert worst < 1e-9


def test_quadratic_nonnegative_on_unit_sphere(rng):
    q_true = random_unit_quaternion(rng)
    r3 = quat.to_rotation_matrix(q_true)
    cons = []
    for _ in range(3):
        rb = random_rotation(rng)
        axis = rng.normal(size=3)
        cons.append(
            dict(
                camera_rotation=r3 @ rb @ r3.T,
                hand_rotation=rb,
                camera_axis=axis / np.linalg.norm(axis),
                hand_axis=axis / np.linalg.norm(axis),
                camera_translation=rng.normal(size=3) * 150,
                hand_translation=rng.normal(size=3) * 150,
            )
        )
    quad = build_quadratic(constraint_set(cons))
    # nonnegative at the conjugating quaternion for any translation
    for _ in range(200):
        assert quad.evaluate(q_true, rng.normal(size=3) * 500) >= -1e-9


def test_quadratic_rotation_block_symmetry(rng):
    truth = random_motion(rng, 150.0)
    quad = build_quadratic(_noisy(consistent_constraints(rng, truth, 4), rng))
    assert np.linalg.norm(quad.rotation_quad - quad.rotation_quad.T) <= 1e-12


# ---------------------------------------------------------------------------
# nonlinear solver

def _nonlinear_from(cs, q, t):
    """The nonlinear solve of one problem started at (q, t): the
    closed-form batch with its estimate replaced, so its checks still
    apply."""
    one = solvers._one(cs)
    start = solvers._closed_form(one, solvers._translation_svd(one))
    start = start._replace(rotation=q[None], translation=t[None])
    return solvers._nonlinear(one, start).solution()


def test_nonlinear_stationary_at_ground_truth(rng):
    truth = random_motion(rng, 150.0)
    cons = consistent_constraints(rng, truth, 3)
    q = quat.from_rotation_matrix(truth.rotation)
    sol = _nonlinear_from(cons, q, truth.translation)
    assert sol.iterations <= 3
    assert np.allclose(sol.rotation, q, atol=1e-10)
    assert np.allclose(sol.translation, truth.translation, atol=1e-10 * 150.0)


def test_nonlinear_exact_recovery(rng):
    for _ in range(10):
        truth = random_motion(rng, 150.0)
        sol = solve(Method.NONLINEAR, consistent_constraints(rng, truth, 2))
        rot, tr = _recovery_errors(sol, truth)
        assert rot < 1e-8
        assert tr < 1e-8
        assert sol.converged


def test_nonlinear_scaled_objective_never_above_initializer(rng):
    # same dominance in the units the default configuration optimizes
    def scaled_objective(cons, q, t, span):
        k, vp, v = cons.camera_rotation, cons.camera_axis, cons.hand_axis
        pp, p = cons.camera_translation / span, cons.hand_translation / span
        f1 = np.sum((vp - quat.rotate_vector(q, v)) ** 2)
        f2 = np.sum((quat.rotate_vector(q, p) - (k - np.eye(3)) @ (t / span) - pp) ** 2)
        return f1 + f2 + 2e6 * (1 - q @ q) ** 2

    for seed in range(50):
        local = np.random.default_rng(seed)
        truth = random_motion(local, 150.0)
        cons = _noisy(consistent_constraints(local, truth, 3), local, level=0.04)
        span = translation_span(cons)
        start = solve(Method.CLOSED_FORM, cons)
        sol = _nonlinear_from(cons, start.rotation, start.translation)
        before = scaled_objective(cons, start.rotation, start.translation, span)
        after = scaled_objective(cons, sol.rotation, sol.translation, span)
        assert after <= before * (1 + 1e-12)


def test_nonlinear_degenerate_inputs_rejected(rng):
    truth = random_motion(rng, 150.0)
    with pytest.raises(TooFewMotionsError):
        solve(Method.NONLINEAR, consistent_constraints(rng, truth, 1))
    with pytest.raises(IllConditionedError):
        solve(Method.NONLINEAR, parallel_axis_constraints(rng, truth, 3))
    # a given start point replaces only the closed-form estimate, not its checks
    with pytest.raises(IllConditionedError):
        _nonlinear_from(
            parallel_axis_constraints(rng, truth, 3),
            quat.from_rotation_matrix(truth.rotation),
            truth.translation,
        )


def test_nonlinear_tagged_when_capped(rng, monkeypatch):
    truth = random_motion(rng, 150.0)
    cons = _noisy(consistent_constraints(rng, truth, 3), rng, level=0.05)
    q0 = random_unit_quaternion(rng)
    monkeypatch.setattr(solvers, "MAX_ITERATIONS", 1)
    sol = _nonlinear_from(cons, q0, np.zeros(3))
    assert not sol.converged
    assert sol.iterations == 1
    # still a usable iterate
    assert np.isfinite(sol.translation).all()


def test_nonlinear_converges_on_noisy_data(rng):
    truth = random_motion(rng, 150.0)
    cons = _noisy(consistent_constraints(rng, truth, 4), rng, level=0.03)
    sol = solve(Method.NONLINEAR, cons)
    assert sol.converged
    assert 0 < sol.iterations < 200


def test_every_solver_exact_across_sizes_and_scales(rng):
    # translation magnitudes from 50 to 500 mm, motion counts 2 through 9
    for n in range(2, 10):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        truth = RigidMotion(random_rotation(rng), rng.uniform(50.0, 500.0) * direction)
        cons = consistent_constraints(rng, truth, n)
        for method in Method:
            rot, tr = _recovery_errors(solve(method, cons), truth)
            assert rot <= 1e-8, (method, n, rot)
            assert tr <= 1e-7, (method, n, tr)


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_solve_empty_set_rejected(method):
    with pytest.raises(TooFewMotionsError, match="need at least 2 motions, got 0"):
        solve(method, constraint_set([]))


# ---------------------------------------------------------------------------
# report metrics

def test_report_residuals_zero_at_truth(rng):
    truth = random_motion(rng, 150.0)
    cons = consistent_constraints(rng, truth, 3)
    sol = solve(Method.CLOSED_FORM, cons)
    rot, tr = report_residuals(cons, sol)
    assert rot == pytest.approx(0.0, abs=1e-12)
    assert tr == pytest.approx(0.0, abs=1e-12)


def test_report_residuals_positive_for_identity_guess(rng):
    truth = random_motion(rng, 150.0)
    cons = consistent_constraints(rng, truth, 3)
    guess = solvers.HandEyeSolution(
        quat.IDENTITY, np.zeros(3), 0.0, 0.0, Method.CLOSED_FORM
    )
    rot, tr = report_residuals(cons, guess)
    assert rot > 0.0
    assert tr > 0.0


def test_report_residuals_zero_denominator(rng):
    cons = constraint_set([
        dict(
            camera_rotation=random_rotation(rng),
            hand_rotation=random_rotation(rng),
            camera_axis=np.array([1.0, 0, 0]),
            hand_axis=np.array([0.0, 1.0, 0]),
            camera_translation=np.zeros(3),
            hand_translation=np.zeros(3),
        )
        for _ in range(2)
    ])
    guess = solvers.HandEyeSolution(quat.IDENTITY, np.zeros(3), 0.0, 0.0, Method.TSAI_LENZ)
    with pytest.raises(ZeroTranslationError, match="translation-transfer norm is zero"):
        report_residuals(cons, guess)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("rotation", [np.nan, 0.0, 0.0, 0.0], "quaternion norm off unity by nan"),
        ("translation", [np.nan, 0.0, 0.0], "translation must be a finite 3-vector"),
        ("translation", [0.0, -np.inf, 0.0], "translation must be a finite 3-vector"),
        ("rotation_residual", np.nan, "residuals must be finite and non-negative"),
        ("translation_residual", np.inf, "residuals must be finite and non-negative"),
        ("translation_residual", -1e-3, "residuals must be finite and non-negative"),
        ("rotation", [1.01, 0.0, 0.0, 0.0], "quaternion norm off unity by 2.010e-02"),
    ],
)
def test_solution_rejects_non_finite_fields(field, value, message):
    fields = dict(
        rotation=quat.IDENTITY,
        translation=np.zeros(3),
        rotation_residual=0.0,
        translation_residual=0.0,
        method=Method.NONLINEAR,
    )
    fields[field] = value
    with pytest.raises(ValueError, match=message):
        solvers.HandEyeSolution(**fields)


def test_finish_signs_q_once_and_fails_a_non_unit_row_with_a_calibration_error(rng):
    truth = random_motion(rng, 150.0)
    one = consistent_constraints(rng, truth, 3)
    cs = ConstraintSet(*(np.stack([a] * 3) for a in one.arrays))
    q = quat.from_rotation_matrix(truth.rotation)
    batch = solvers._Failures.none(3).finish(
        Method.CLOSED_FORM, cs, np.stack([q, -q, 1.01 * q]), np.stack([truth.translation] * 3)
    )
    assert batch.errors[:2] == (None, None)
    assert type(batch.errors[2]) is CalibrationError
    assert str(batch.errors[2]) == "quaternion norm off unity by 2.010e-02"
    assert np.array_equal(batch.rotation[0], batch.rotation[1])
    assert np.array_equal(batch.rotation[0], quat.canonicalize(q))
    assert batch.rotation_residual[0] == batch.rotation_residual[1]
    assert batch.translation_residual[0] == batch.translation_residual[1]


def test_solution_residual_magnitudes_on_noisy_data(rng):
    # realistic noisy problems land between 1e-4 and 1e-1 on both metrics
    truth = random_motion(rng, 150.0)
    cons = _noisy(consistent_constraints(rng, truth, 6), rng, level=0.02)
    for method in Method:
        sol = solve(method, cons)
        assert 1e-6 < sol.rotation_residual < 1.0
        assert 1e-6 < sol.translation_residual < 1.0


# ---------------------------------------------------------------------------
# batches

def _batch(*problems):
    """Constraint sets of equal motion count stacked into one batch."""
    return ConstraintSet(*(np.stack(arrays) for arrays in zip(*(p.arrays for p in problems))))


def test_batch_decomposes_the_translation_system_once(rng, monkeypatch):
    # one SVD for the Tsai-Lenz axis system, one shared by both translations
    truth = random_motion(rng, 150.0)
    shapes = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    solvers.solve_batch(_batch(*(consistent_constraints(rng, truth, 3) for _ in range(4))))
    assert shapes == [(4, 9, 3), (4, 9, 3)]


def test_batch_records_degenerate_problems_and_solves_the_rest_exactly(rng):
    truth = random_motion(rng, 150.0)
    good = _noisy(consistent_constraints(rng, truth, 3), rng)
    bad = [parallel_axis_constraints(rng, truth, 3) for _ in range(2)]
    results = solvers.solve_batch(_batch(bad[0], good, bad[1]))
    assert list(results) == list(Method)
    for method, batch in results.items():
        assert list(batch.ok) == [False, True, False]
        for j, problem in ((0, bad[0]), (2, bad[1])):
            with pytest.raises(CalibrationError) as alone:
                solve(method, problem)
            assert type(batch.errors[j]) is type(alone.value)
            assert str(batch.errors[j]) == str(alone.value)
            with pytest.raises(type(alone.value)):
                batch.solution(j)
        expected = solve(method, good)
        got = batch.solution(1)
        assert np.array_equal(got.rotation, expected.rotation)
        assert np.array_equal(got.translation, expected.translation)
        assert got.rotation_residual == expected.rotation_residual
        assert got.translation_residual == expected.translation_residual
        assert (got.iterations, got.converged) == (expected.iterations, expected.converged)


def test_batch_records_zero_transfer_and_solves_the_rest_exactly(rng):
    # All translations zero: every solver's residual has a zero denominator.
    truth = random_motion(rng, 150.0)
    zero = consistent_constraints(rng, RigidMotion(truth.rotation, np.zeros(3)), 3, translation=0.0)
    good = _noisy(consistent_constraints(rng, truth, 3), rng)
    results = solvers.solve_batch(_batch(good, zero))
    for method, batch in results.items():
        assert list(batch.ok) == [True, False]
        assert isinstance(batch.errors[1], ZeroTranslationError)
        with pytest.raises(ZeroTranslationError) as alone:
            solve(method, zero)
        assert str(batch.errors[1]) == str(alone.value)
        assert "translation-transfer norm is zero" in str(alone.value)
        expected = solve(method, good)
        got = batch.solution(0)
        assert np.array_equal(got.rotation, expected.rotation)
        assert np.array_equal(got.translation, expected.translation)
        assert got.rotation_residual == expected.rotation_residual
        assert got.translation_residual == expected.translation_residual
        assert (got.iterations, got.converged) == (expected.iterations, expected.converged)


def test_batch_records_non_finite_rows_and_solves_the_rest_exactly(rng):
    # Translations near 1e160 are finite, but their squares overflow.
    truth = random_motion(rng, 150.0)
    good = [_noisy(consistent_constraints(rng, truth, 3), rng) for _ in range(2)]
    huge = dataclasses.replace(
        good[0],
        camera_translation=1e160 * good[0].camera_translation,
        hand_translation=1e160 * good[0].hand_translation,
    )
    results = solvers.solve_batch(_batch(good[0], huge, good[1]))
    for method, batch in results.items():
        assert list(batch.ok) == [True, False, True]
        assert type(batch.errors[1]) is CalibrationError
        assert str(batch.errors[1]).endswith("is not finite: the input is out of numeric range")
        for j, problem in ((0, good[0]), (2, good[1])):
            expected = solve(method, problem)
            got = batch.solution(j)
            assert np.array_equal(got.rotation, expected.rotation)
            assert np.array_equal(got.translation, expected.translation)
            assert got.rotation_residual == expected.rotation_residual
            assert got.translation_residual == expected.translation_residual
            assert (got.iterations, got.converged) == (expected.iterations, expected.converged)


# ---------------------------------------------------------------------------
# Levenberg-Marquardt Jacobian

# (scenario builder, n) of the LM Jacobian tests, ids kept from n alone.
LM_CASES = [
    pytest.param(sim.default_scenario, 2, id="2"),
    pytest.param(sim.default_scenario, 9, id="9"),
    pytest.param(sim.perspective_scenario, 5, id="perspective-5"),
]


def _sweep_args(builder, n):
    return builder(n, seed=3), sim.Distribution.GAUSSIAN, 0.04, 0.04


def _sweep_batch(builder, n, trials):
    """A noisy sweep batch of ``trials`` problems with n motions each: the
    first block of point 0 of a seed-5 sweep."""
    args = _sweep_args(builder, n)
    draws = sim._block_draws(5, 0, 0, trials, sim._trial_draw_count(*args))
    return sim._perturbed_constraints(*args, draws)


def _lm_batch(builder, n, trials=12):
    """The LM problems of a noisy sweep batch, at points near their optima,
    and each trial's constraint set alone."""
    args = _sweep_args(builder, n)
    cs = _sweep_batch(builder, n, trials)
    alone = [sim.trial_constraints(*args, sim._generator(5, 0, j)) for j in range(trials)]
    scale = translation_span(cs)
    start = solvers._closed_form(cs, solvers._translation_svd(cs))
    x = np.concatenate([start.rotation, start.translation / scale[:, None]], axis=1)
    x += np.random.default_rng(n).normal(scale=0.01, size=x.shape)
    return solvers._LMProblem.build(cs, scale), x, alone


@pytest.mark.parametrize("builder, n", LM_CASES)
def test_lm_jacobian_matches_central_differences(builder, n):
    # The residuals are quadratic in (q, t), so central differences carry no
    # truncation error, only rounding: about 1e-16 * |r| / h = 1.4e-10, with
    # |r| up to the penalty row's sqrt(2e6).
    problem, x, _ = _lm_batch(builder, n)
    jac = problem.jacobian(x)
    h = 1e-3
    for k in range(7):
        step = np.zeros(7)
        step[k] = h
        numeric = (problem.residuals(x + step) - problem.residuals(x - step)) / (2 * h)
        assert np.max(np.abs(jac[:, :, k] - numeric)) <= 1e-8


@pytest.mark.parametrize("builder, n", LM_CASES)
def test_lm_jacobian_row_equals_the_problem_alone(builder, n):
    problem, x, alone = _lm_batch(builder, n)
    jac = problem.jacobian(x)
    for j, cs in enumerate(alone):
        one = solvers._one(cs)
        single = solvers._LMProblem.build(one, translation_span(one))
        assert np.array_equal(jac[j], single.jacobian(x[j : j + 1])[0])
