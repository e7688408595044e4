"""The benchmark's seed-0 sweeps reproduce its committed reference CSVs.

Runs the ``sweep-noise`` and ``sweep-count`` commands that
``perfbench/workloads.py`` issues at seed 0 (1000 trials each) through
``handeye.cli.main`` and compares every CSV with ``perfbench/reference/``:
``e_rot`` and ``e_tr`` within 1e-9 relative, ``failed_trials`` exactly.
"""

import math
from pathlib import Path

import pytest

from handeye.cli import EXIT_OK, main

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"
RTOL = 1e-9

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
