"""Smoke tests of the scripts under ``tools/``: each one loads and answers
``--help``, and the block benchmark draws what a sweep draws.  No test
imports the tools otherwise, so a library name they use could go away
unnoticed."""

import importlib.util
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

import handeye.simulate as sim

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture
def tool_imports(monkeypatch):
    """Undo on teardown what loading a tool does to this process: it pins
    the BLAS and OpenMP thread variables and puts paths on ``sys.path``."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))


@pytest.mark.parametrize("script", sorted(TOOLS.glob("*.py")), ids=lambda p: p.name)
def test_each_tool_exits_0_on_help(tool_imports, monkeypatch, capsys, script):
    monkeypatch.setattr(sys, "argv", [str(script), "--help"])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_path(str(script), run_name="__main__")
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage:")


def test_bench_lm_blocks_draws_the_first_block_of_a_sweep(tool_imports):
    spec = importlib.util.spec_from_file_location("bench_lm_blocks", TOOLS / "bench_lm_blocks.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    for budget, trials in zip(tool.BUDGETS, (512, 2048)):
        args, draws = tool.count_block(2, budget)
        m = sim._trial_draw_count(*args)
        assert np.array_equal(draws, sim._block_draws(0, 0, 0, trials, m))
