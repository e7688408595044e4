"""The committed sample files must stay loadable and solvable."""

from pathlib import Path

import numpy as np
import pytest

import handeye as he
from handeye.datafiles import load_dataset
from handeye.simulate import Formulation

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


@pytest.mark.parametrize(
    "name,formulation",
    [
        ("classical.yaml", Formulation.CLASSICAL),
        ("perspective.yaml", Formulation.PERSPECTIVE),
        ("synthetic_with_truth.yaml", Formulation.CLASSICAL),
    ],
)
def test_sample_loads_and_solves(name, formulation):
    dataset = load_dataset(SAMPLES / name)
    assert dataset.formulation == formulation
    solution = he.solve(he.Method.NONLINEAR, dataset.constraints())
    assert solution.converged
    assert solution.translation_residual < 0.1


def test_synthetic_sample_recovers_embedded_truth():
    dataset = load_dataset(SAMPLES / "synthetic_with_truth.yaml")
    truth = dataset.metadata["ground_truth"]
    solution = he.solve(he.Method.NONLINEAR, dataset.constraints())
    assert np.linalg.norm(
        solution.rotation_matrix - np.array(truth["rotation_matrix"])
    ) < 1e-8
    t = np.array(truth["translation_mm"])
    assert np.linalg.norm(solution.translation - t) / np.linalg.norm(t) < 1e-7
