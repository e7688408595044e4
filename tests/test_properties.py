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

from handeye.datafiles import load_dataset, save_dataset, synthetic_dataset
from handeye.geometry import orthonormalize
from handeye.simulate import Distribution, Formulation, NoiseModel, NoiseTargets
from handeye.solvers import SOLVERS, Method

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

formulations = st.sampled_from(list(Formulation))
seeds = st.integers(0, 2**32 - 1)
# 10**-6 to 10**6, spread evenly in magnitude
scales = st.floats(-6.0, 6.0).map(lambda e: 10.0**e)


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
