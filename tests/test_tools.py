"""Smoke tests of the scripts under ``tools/``: each one loads and answers
``--help``, the block benchmark draws what a sweep draws, and the worker
benchmark forces or records the sweep's worker count.  No test
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


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_bench_lm_blocks_draws_the_first_block_of_a_sweep(tool_imports):
    tool = _load("bench_lm_blocks")
    for budget, trials in zip(tool.BUDGETS, (512, 2048)):
        args, draws = tool.count_block(2, budget)
        m = sim._trial_draw_count(*args)
        assert np.array_equal(draws, sim._block_draws(0, 0, 0, trials, m))


def test_bench_sweep_workers_forces_or_records_the_sweeps_worker_count(tool_imports, monkeypatch):
    tool = _load("bench_sweep_workers")
    monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    used = []

    def solve_blocks(tasks, workers):
        used.append(workers)
        yield from map(sim._solve_block, tasks)

    monkeypatch.setattr(sim, "_solve_blocks", solve_blocks)
    pick = sim._pool_size
    grid = [(sim.Distribution.UNIFORM, sim.NoiseTargets.ROTATION)]
    for force, workers in ((1, 1), (None, 3)):
        seen = set()
        with tool.workers(force, seen):
            # 512 trials at n = 2 are _POOL_WORK trials x motions
            sim.noise_sweep(sim.default_scenario(2, 3), [0.03], grid, 512, 0)
        assert seen == {workers} and used.pop() == workers
        assert sim._pool_size is pick
