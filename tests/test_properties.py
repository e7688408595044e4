"""Properties checked on generated inputs with ``hypothesis``.

Examples are derandomized, so the suite draws the same inputs on every
run, and there is no example database.
"""

import dataclasses
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from handeye import simulate as sim
from handeye.datafiles import load_dataset, save_dataset, synthetic_dataset
from handeye.errors import CalibrationError
from handeye.geometry import ConstraintSet, orthonormalize, perspective_constraints
from handeye.simulate import Distribution, Formulation, NoiseModel, NoiseTargets
from handeye.solvers import SOLVERS, Method, solve_batch

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

formulations = st.sampled_from(list(Formulation))
seeds = st.integers(0, 2**32 - 1)
# 10**-6 to 10**6, spread evenly in magnitude
scales = st.floats(-6.0, 6.0).map(lambda e: 10.0**e)
levels = st.floats(0.0, 0.1)


def _relative(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@PROPERTY
@given(formulations, st.integers(2, 8), seeds, scales)
def test_scaling_translations_scales_t_and_keeps_q(formulation, n, seed, scale):
    noise = NoiseModel(Distribution.GAUSSIAN, 0.02, NoiseTargets.ROTATION_AND_TRANSLATION, seed)
    cs = synthetic_dataset(n, seed, formulation, noise).constraints()
    scaled = dataclasses.replace(
        cs,
        camera_translation=scale * cs.camera_translation,
        hand_translation=scale * cs.hand_translation,
    )
    for method in Method:
        before, after = SOLVERS[method](cs), SOLVERS[method](scaled)
        if method is Method.NONLINEAR:
            # Its objective divides translations by their RMS magnitude, so
            # only where LM stops moves, by about 1e-10.
            assert np.max(np.abs(after.rotation - before.rotation)) <= 2e-10
            assert _relative(after.translation, scale * before.translation) <= 1.5e-9
        else:
            # The rotation comes from the axes alone.
            assert np.array_equal(after.rotation, before.rotation)
            assert _relative(after.translation, scale * before.translation) <= 4e-15


@PROPERTY
@given(formulations, st.integers(2, 9), seeds)
def test_noise_free_dataset_round_trips_and_recovers_its_truth(formulation, n, seed):
    dataset = synthetic_dataset(n, seed, formulation)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ds.yaml"
        save_dataset(dataset, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = load_dataset(path)
    assert loaded.formulation is formulation
    assert loaded.metadata == dataset.metadata
    classical = formulation is Formulation.CLASSICAL
    camera = "camera_extrinsics" if classical else "perspective_matrices"
    for key, rigid in (("hand_poses", True), (camera, classical)):
        saved, read = getattr(dataset, key).copy(), getattr(loaded, key).copy()
        assert read.shape == saved.shape == (n + 1, 4 if rigid else 3, 4)
        if rigid:
            # rotation blocks are orthonormalized again on load
            assert np.array_equal(read[:, :3, :3], orthonormalize(saved[:, :3, :3]))
            read[:, :3, :3] = saved[:, :3, :3] = 0.0
        # nothing else moves
        assert np.array_equal(read, saved)

    truth = loaded.metadata["ground_truth"]
    rotation, translation = np.array(truth["rotation_matrix"]), np.array(truth["translation_mm"])
    constraints = loaded.constraints()
    for method in Method:
        solution = SOLVERS[method](constraints)
        # criterion 02's bounds
        assert np.linalg.norm(solution.rotation_matrix - rotation) <= 1e-8
        assert np.linalg.norm(solution.translation - translation) <= 1e-7 * np.linalg.norm(
            translation
        )


@PROPERTY
@given(
    formulations, st.sampled_from(list(Distribution)), st.integers(2, 9), seeds,
    st.integers(1, 40), levels, levels,
)
def test_batch_rows_equal_single_solves_bit_for_bit(
    formulation, distribution, n, seed, trials, rot_level, trans_level
):
    scenario = (
        sim.default_scenario(n, seed)
        if formulation is Formulation.CLASSICAL
        else sim.perspective_scenario(n, seed)
    )
    rngs = [sim._generator(seed, j) for j in range(trials)]
    batch = sim._trial_constraints(scenario, distribution, rot_level, trans_level, rngs)
    results = solve_batch(batch)
    for j in range(trials):
        problem = ConstraintSet(*(a[j] for a in batch.arrays))
        for method, rows in results.items():
            try:
                expected = SOLVERS[method](problem)
            except (CalibrationError, ValueError) as err:
                assert type(rows.errors[j]) is type(err)
                assert str(rows.errors[j]) == str(err)
                continue
            got = rows.solution(j)
            assert np.array_equal(got.rotation, expected.rotation)
            assert np.array_equal(got.translation, expected.translation)
            assert got.rotation_residual == expected.rotation_residual
            assert got.translation_residual == expected.translation_residual
            assert (got.iterations, got.converged) == (expected.iterations, expected.converged)


@PROPERTY
@given(
    st.integers(2, 8), seeds,
    st.lists(st.tuples(st.floats(-3.0, 3.0), st.booleans()), min_size=9, max_size=9),
)
def test_scaling_perspective_matrices_keeps_the_solution(n, seed, factors):
    noise = NoiseModel(Distribution.GAUSSIAN, 0.02, NoiseTargets.ROTATION_AND_TRANSLATION, seed)
    dataset = synthetic_dataset(n, seed, Formulation.PERSPECTIVE, noise)
    # lambda in +-[1e-3, 1e3], one per matrix
    lam = np.array([(-1.0 if negative else 1.0) * 10.0**e for e, negative in factors[: n + 1]])
    matrices = dataset.perspective_matrices
    scaled = perspective_constraints(lam[:, None, None] * matrices, dataset.hand_poses)
    cs = perspective_constraints(matrices, dataset.hand_poses)
    for method in Method:
        before, after = SOLVERS[method](cs), SOLVERS[method](scaled)
        # The normalized matrices differ only by rounding.  The nonlinear
        # solver's stopping point moves with that by up to about 1e-9.
        tol = 1e-8 if method is Method.NONLINEAR else 1e-12
        assert np.max(np.abs(after.rotation - before.rotation)) <= tol
        assert _relative(after.translation, before.translation) <= max(tol, 1e-9)
