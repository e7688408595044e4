"""The benchmark's seed-0 workloads reproduce its committed references.

Runs the ``sweep-noise`` and ``sweep-count`` commands that
``perfbench/workloads.py`` issues at seed 0 (1000 trials each) through
``handeye.cli.main`` and compares every CSV with ``perfbench/reference/``:
``e_rot`` and ``e_tr`` within 1e-9 relative, ``failed_trials`` exactly.
The seed-0 ``calibrate`` corpus (the three samples plus the ten generated
datasets) is calibrated with every method and compared with
``reference/calibrate.json``: 1e-8 absolute per quaternion component,
1e-8 relative to the norm for the translation.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
import yaml

from handeye.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "perfbench" / "reference"
RTOL = 1e-9
SOLUTION_TOL = 1e-8
METHODS = ("tsai-lenz", "closed-form", "nonlinear")
SAMPLES = ("classical", "perspective", "synthetic_with_truth")
SYNTHETIC = [(form, n) for form in ("classical", "perspective") for n in (2, 5, 10, 20, 30)]

COMMANDS = {
    "sweep-noise": (
        ["simulate", "--levels", "0.03", "--trials", "1000", "--seed", "0",
         "--output", "noise.csv"],
        [f"noise_{d}_{t}.csv" for d in ("uniform", "gaussian")
         for t in ("rotation", "rotation-translation")],
    ),
    "sweep-count": (
        ["simulate", "--motions", "2,5,9", "--trials", "1000", "--seed", "6",
         "--distribution", "gaussian", "--targets", "rotation-translation",
         "--output", "count.csv"],
        ["count.csv"],
    ),
}


def _rows(text: str) -> tuple[str, list[list[str]]]:
    lines = text.splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


@pytest.mark.parametrize("workload", sorted(COMMANDS))
def test_seed_zero_sweep_matches_reference(tmp_path, workload):
    argv, names = COMMANDS[workload]
    argv = argv[:-1] + [str(tmp_path / argv[-1])]
    assert main(argv) == EXIT_OK
    for name in names:
        header, rows = _rows((tmp_path / name).read_text(encoding="utf-8"))
        ref_header, ref_rows = _rows((REFERENCE / workload / name).read_text(encoding="utf-8"))
        assert header == ref_header
        assert len(rows) == len(ref_rows), name
        for row, ref in zip(rows, ref_rows):
            assert (float(row[0]), row[1]) == (float(ref[0]), ref[1]), name
            assert _close(float(row[2]), float(ref[2])), (name, row, ref)
            assert _close(float(row[3]), float(ref[3])), (name, row, ref)
            assert int(row[4]) == int(ref[4]), (name, row, ref)


def test_seed_zero_calibrate_matches_reference(tmp_path):
    datasets = [(name, ROOT / "samples" / f"{name}.yaml") for name in SAMPLES]
    for index, (form, n) in enumerate(SYNTHETIC):
        path = tmp_path / f"{form}_n{n}.yaml"
        assert main([
            "generate", "--motions", str(n), "--seed", str(index), "--formulation", form,
            "--noise-level", "0.01", "--noise-distribution", "gaussian",
            "--noise-targets", "rotation-translation", str(path),
        ]) == EXIT_OK
        datasets.append((f"{form}_n{n}", path))
    reference = json.loads((REFERENCE / "calibrate.json").read_text(encoding="utf-8"))
    assert len(reference) == len(datasets) * len(METHODS)
    for name, path in datasets:
        for method in METHODS:
            output = tmp_path / "solution.yaml"
            argv = ["calibrate", str(path), "--method", method, "--output", str(output)]
            assert main(argv) == EXIT_OK, (name, method)
            doc = yaml.safe_load(output.read_text(encoding="utf-8"))
            ref = reference[f"{name}|{method}"]
            q, t = np.array(doc["quaternion_wxyz"]), np.array(doc["translation_mm"])
            ref_q, ref_t = np.array(ref["quaternion_wxyz"]), np.array(ref["translation_mm"])
            assert np.max(np.abs(q - ref_q)) <= SOLUTION_TOL, (name, method, q, ref_q)
            assert np.linalg.norm(t - ref_t) <= SOLUTION_TOL * np.linalg.norm(ref_t), (
                name, method, t, ref_t,
            )
