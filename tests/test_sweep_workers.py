"""Sweeps solved in worker processes report exactly what one process does.

The worker count is forced through ``simulate._pool_size``, the one place
that picks it, so these tests run the pooled path on any machine.
"""

import gc
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

import pytest

import handeye.simulate as sim
from handeye.cli import EXIT_DEGENERATE, main
from handeye.errors import CalibrationError, DegenerateRotationError
from handeye.simulate import (
    Distribution,
    NoiseTargets,
    Scenario,
    default_scenario,
    motion_count_sweep,
    noise_sweep,
)

BOTH = NoiseTargets.ROTATION_AND_TRANSLATION
ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))


def _force_workers(monkeypatch, workers):
    monkeypatch.setattr(sim, "_pool_size", lambda blocks, work: workers)


def _noise(levels, trials=600, scenario=None):
    scenario = scenario or default_scenario(2, 3)
    return noise_sweep(scenario, levels, [(Distribution.GAUSSIAN, BOTH)], trials, 5)[0]


def _count(trials=300):
    scenarios = [sim.SCENARIOS[sim.Formulation.PERSPECTIVE](n, 4) for n in (2, 5, 9)]
    return motion_count_sweep(scenarios, [(Distribution.UNIFORM, BOTH)], trials, 1)[0]


# (study, block budget): 600 trials at n = 2 are 2 blocks per level; with a
# budget of 16 the count study's blocks hold 8, 3 and 1 trials.
CASES = {
    "noise-1-level": (lambda: _noise([0.03]), None),
    "noise-3-levels": (lambda: _noise([0.0, 0.03, 0.06]), None),
    "count": (lambda: _count(), None),
    "noise-small-blocks": (lambda: _noise([0.03], trials=40), 16),
    "count-small-blocks": (lambda: _count(trials=20), 16),
}


@pytest.mark.parametrize("case", CASES)
def test_rows_do_not_depend_on_the_worker_count(case, monkeypatch):
    sweep, budget = CASES[case]
    if budget is not None:
        monkeypatch.setattr(sim, "_BLOCK_MOTIONS", budget)
    _force_workers(monkeypatch, 1)
    serial = sweep()
    for workers in (2, 3):
        _force_workers(monkeypatch, workers)
        assert sweep() == serial, workers
        assert multiprocessing.active_children() == []


def _raised(sweep):
    with pytest.raises(CalibrationError) as info:
        sweep()
    assert multiprocessing.active_children() == []
    return info.value


# (levels, trials): 300 trials are one block per level, 600 two.
FAILING = [
    ([0.03, 1e200], 300),
    ([1e200, 1e250], 300),
    ([0.03, 1e200, 1e250], 300),
    ([0.03, 0.03, 1e200, 1e250], 600),
]


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("levels, trials", FAILING)
def test_the_earliest_failing_block_raises_its_error(levels, trials, workers, monkeypatch):
    _force_workers(monkeypatch, 1)
    expected = _raised(lambda: _noise(levels, trials))
    assert "1e+200" in str(expected)
    _force_workers(monkeypatch, workers)
    got = _raised(lambda: _noise(levels, trials))
    assert type(got) is type(expected) is CalibrationError
    assert str(got) == str(expected)


@pytest.mark.parametrize("workers", [2, 3])
def test_a_degenerate_scenario_fails_in_a_worker_with_its_index(workers, monkeypatch):
    # positions 1 and 2 coincide: camera motion 1 is the identity.  The
    # caller derives each scenario's motions before it lists the blocks, so
    # the error comes from the caller at every worker count.
    base = default_scenario(3, 0)
    poses = base.camera_poses.copy()
    poses[2] = poses[1]
    scenario = Scenario(base.ground_truth, poses, base.formulation)
    sweep = lambda: _noise([0.03], trials=1000, scenario=scenario)  # noqa: E731
    _force_workers(monkeypatch, 1)
    expected = _raised(sweep)
    _force_workers(monkeypatch, workers)
    got = _raised(sweep)
    assert type(got) is type(expected) is DegenerateRotationError
    assert (str(got), got.index) == (str(expected), expected.index) == (
        "camera motion 1 is near identity", 1,
    )


def test_cli_reports_a_worker_error_as_one_process_does(tmp_path, capsys, monkeypatch):
    argv = ["simulate", "--levels", "0.03,1e200", "--trials", "1000",
            "--output", str(tmp_path / "out.csv")]
    reports = []
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        code = main(argv)
        reports.append((code, capsys.readouterr().err, sorted(tmp_path.iterdir())))
        assert multiprocessing.active_children() == []
    assert reports[0] == reports[1]
    assert reports[0][0] == EXIT_DEGENERATE
    assert reports[0][1].startswith("error: rotation noise level 1e+200 overflows")
    assert reports[0][2] == []


def test_a_pooled_sweep_leaves_no_resource_warning(monkeypatch):
    _force_workers(monkeypatch, 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _noise([0.03])
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def _sweep_in_pool_worker():
    return sim._pool_size(16, 10**6), _noise([0.03])


def test_a_sweep_in_a_daemonic_worker_runs_in_that_worker(monkeypatch):
    monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert sim._pool_size(16, 10**6) == 2
    with multiprocessing.get_context("fork").Pool(1) as pool:
        workers, rows = pool.apply(_sweep_in_pool_worker)
        pool.close()
        pool.join()
    assert workers == 1
    assert rows == _noise([0.03])


def test_pool_size_rules(monkeypatch):
    monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    budget = sim._BLOCK_MOTIONS
    assert sim._pool_size(3, budget) == 3
    assert sim._pool_size(9, budget) == 4
    assert sim._pool_size(1, 10 * budget) == 1  # one block
    assert sim._pool_size(9, budget - 1) == 1  # less work than one full block
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert sim._pool_size(9, budget) == 1  # another thread is alive
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: {0})
    assert sim._pool_size(9, budget) == 1  # one usable CPU
    monkeypatch.delattr(sim.os, "sched_getaffinity")
    assert sim._pool_size(9, budget) == 1  # no affinity mask: not Linux


def _recorded_solve_blocks(monkeypatch) -> list:
    """The worker count of every ``_solve_blocks`` call from now on."""
    calls = []
    solve_blocks = sim._solve_blocks

    def recorded(tasks, workers):
        calls.append(workers)
        return solve_blocks(tasks, workers)

    monkeypatch.setattr(sim, "_solve_blocks", recorded)
    return calls


@pytest.mark.parametrize("study", [["--levels", "0.01,0.03"], ["--motions", "2:9"]])
def test_one_trial_sweeps_start_no_pool(study, tmp_path, monkeypatch):
    counts = _recorded_solve_blocks(monkeypatch)
    assert main(["simulate", *study, "--trials", "1", "--output", str(tmp_path / "o.csv")]) == 0
    assert counts == [1]


@pytest.mark.parametrize("study", [["--levels", "0.01,0.05"], ["--motions", "2,3"]])
def test_a_grid_simulate_solves_every_combination_in_one_call(study, tmp_path, monkeypatch):
    # 600 trials are 2 blocks per point: the call's 16 blocks go to one pool
    calls = _recorded_solve_blocks(monkeypatch)
    argv = ["simulate", *study, "--distribution", "both", "--targets", "both",
            "--trials", "600", "--output", str(tmp_path / "grid.csv")]
    assert main(argv) == 0
    assert len(calls) == 1
    outputs = {}
    for workers in (1, 2, 3):
        _force_workers(monkeypatch, workers)
        for path in tmp_path.iterdir():
            path.unlink()
        calls.clear()
        assert main(argv) == 0
        assert calls == [workers]
        assert multiprocessing.active_children() == []
        outputs[workers] = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert len(outputs[1]) == 4
    assert outputs[2] == outputs[1] and outputs[3] == outputs[1]


def test_combinations_of_one_call_keep_their_own_rows(monkeypatch):
    # The combinations of a call have the same points 0 and 1, so their
    # blocks share point indices and stream keys; each combination's rows
    # must be those it has alone.
    grid = [(Distribution.GAUSSIAN, BOTH), (Distribution.UNIFORM, NoiseTargets.ROTATION)]
    scenarios = [sim.SCENARIOS[sim.Formulation.PERSPECTIVE](n, 4) for n in (2, 5)]
    studies = {
        "noise": partial(sim.noise_sweep, default_scenario(2, 3), [0.02, 0.05]),
        "count": partial(sim.motion_count_sweep, scenarios),
    }
    for name, study in studies.items():
        _force_workers(monkeypatch, 1)
        alone = [study([pair], 600, 2)[0] for pair in grid]
        assert alone[0] != alone[1]
        for workers in (1, 2, 3):
            _force_workers(monkeypatch, workers)
            assert study(grid, 600, 2) == alone, (name, workers)
            assert study(grid[::-1], 600, 2) == alone[::-1], (name, workers)
            assert multiprocessing.active_children() == []


def test_a_point_is_reduced_as_soon_as_its_last_block_is_solved(monkeypatch):
    # 600 trials at n = 2 are 2 blocks per level: each level's three RMS
    # reductions come before the next level's first block is solved, so a
    # call holds the squared errors of one point, not of its whole grid.
    solved, reduced = [], []
    solve_block, rms_errors = sim._solve_block, sim._rms_errors

    def counted_block(task):
        solved.append(task)
        return solve_block(task)

    def counted_rms(*args):
        reduced.append(len(solved))
        return rms_errors(*args)

    monkeypatch.setattr(sim, "_solve_block", counted_block)
    monkeypatch.setattr(sim, "_rms_errors", counted_rms)
    _force_workers(monkeypatch, 1)
    grid = [(Distribution.GAUSSIAN, BOTH), (Distribution.UNIFORM, BOTH)]
    sim.noise_sweep(default_scenario(2, 3), [0.02, 0.05], grid, 600, 2)
    assert reduced == [2, 2, 2, 4, 4, 4, 6, 6, 6, 8, 8, 8]


def test_a_pool_queues_at_most_two_blocks_per_worker(monkeypatch):
    # the pending futures of a call stay bounded however many blocks it has
    submitted = []
    submit = ProcessPoolExecutor.submit

    def recorded(self, fn, *args):
        submitted.append(args)
        return submit(self, fn, *args)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", recorded)
    scenario = default_scenario(2, 3)
    tasks = [(0, 0, scenario, Distribution.UNIFORM, (0.01, 0.0), j, j + 1) for j in range(12)]
    def bits(result):
        return [(failed, rot.tobytes(), tr.tobytes()) for failed, rot, tr in result]

    serial = [bits(result) for result in sim._solve_blocks(tasks, 1)]
    assert submitted == []
    for k, result in enumerate(sim._solve_blocks(tasks, 2)):
        assert len(submitted) == min(len(tasks), k + 5), k
        assert bits(result) == serial[k]
    assert [args[0] for args in submitted] == tasks
    assert multiprocessing.active_children() == []


def test_importing_the_cli_imports_no_process_machinery():
    code = (
        "import sys, handeye.cli; "
        "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=ENV, capture_output=True, text=True, check=True,
        timeout=60,
    ).stdout
    assert out.strip() == "[]"


def test_ctrl_c_stops_a_pooled_sweep_once_and_leaves_no_process():
    # Ctrl-C signals the whole foreground process group: the workers ignore
    # it, the parent cancels the queued blocks, joins the workers and stops.
    argv = ["simulate", "--levels", "0.03", "--distribution", "gaussian", "--targets", "rotation",
            "--trials", "100000"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "handeye.cli", *argv], env=ENV, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        time.sleep(1.0)
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == -signal.SIGINT
    assert err.count("KeyboardInterrupt") == 1
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


def test_workers_ignore_sigint(monkeypatch):
    # Each forked worker sends itself SIGINT before it solves a block; one
    # that did not ignore it would raise KeyboardInterrupt in the caller.
    parent = os.getpid()
    solve_batch = sim.solve_batch

    def interrupted(constraints):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGINT)
        return solve_batch(constraints)

    monkeypatch.setattr(sim, "solve_batch", interrupted)
    _force_workers(monkeypatch, 1)
    serial = _noise([0.03], trials=1200)
    _force_workers(monkeypatch, 2)
    try:
        pooled = _noise([0.03], trials=1200)
    except KeyboardInterrupt:
        pytest.fail("a worker raised KeyboardInterrupt on SIGINT")
    assert pooled == serial
    assert multiprocessing.active_children() == []
