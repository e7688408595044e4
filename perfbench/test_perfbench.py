"""Tests of the benchmark's own code: percentiles, span arithmetic, the
tracer's install/restore, and the output comparators.

    python3 -m pytest perfbench/test_perfbench.py
"""

import sys
import textwrap
import types

import pytest

import tracing
from run import percentile
from workloads import REFERENCE_DIR, check_sweep_csv, compare_csv


def test_percentile_is_nearest_rank():
    samples = [float(x) for x in range(10, 0, -1)]
    assert percentile(samples, 50) == 5.0
    assert percentile(samples, 90) == 9.0
    assert percentile(samples, 100) == 10.0
    assert percentile(samples, 0) == 1.0
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([4.0], 90) == 4.0
    with pytest.raises(ValueError):
        percentile([], 50)


def _span(name, start, end, parent, note=None):
    return [name, start, end, parent, 0, note]


def test_self_time_of_nested_spans():
    # nonlinear -> closed-form -> eigen_sym4, plus the nonlinear solver's
    # own eigen gate, all inside one CLI call.
    spans = [
        _span("cli.main", 0.0, 12.0, -1),
        _span("solvers.nonlinear", 1.0, 11.0, 0, 4),
        _span("solvers.closed_form", 2.0, 5.0, 1),
        _span("solvers.eigen_sym4", 3.0, 4.0, 2),
        _span("solvers.eigen_sym4", 6.0, 7.0, 1),
    ]
    durations, own = tracing.self_times(spans)
    assert durations == [12.0, 10.0, 3.0, 1.0, 1.0]
    assert own == [2.0, 6.0, 2.0, 1.0, 1.0]

    metrics = tracing.layer_metrics(spans, {"quaternion.embed": 6}, trials=2)
    assert metrics["solvers.nonlinear.self_us"] == pytest.approx(6e6)
    assert metrics["solvers.closed_form.self_us"] == pytest.approx(2e6)
    assert metrics["solvers.eigen_sym4.us_per_call"] == pytest.approx(1e6)
    assert metrics["solvers.eigen_sym4.calls_per_trial"] == pytest.approx(1.0)
    assert metrics["solvers.lm_iterations_mean"] == 4.0
    assert metrics["solvers.nonlinear.us_per_iteration"] == pytest.approx(1.5e6)
    assert metrics["quaternion.calls_per_trial"] == 3.0
    assert metrics["share.solvers_pct"] == pytest.approx(100.0 * 10.0 / 12.0)
    assert metrics["share.cli_pct"] == pytest.approx(100.0 * 2.0 / 12.0)
    assert metrics["datafiles.load_dataset.ms_per_call"] == 0.0


def test_failures_count_only_top_level_solves():
    spans = [
        _span("solvers.nonlinear", 0.0, 3.0, -1, "IllConditionedError"),
        _span("solvers.closed_form", 1.0, 2.0, 0, "IllConditionedError"),
        _span("solvers.tsai_lenz", 3.0, 4.0, -1, "TooFewMotionsError"),
    ]
    metrics = tracing.layer_metrics(spans, {}, trials=4)
    assert metrics["solvers.failed.nonlinear"] == 0.25
    assert metrics["solvers.failed.closed_form"] == 0.0
    assert metrics["solvers.failed.tsai_lenz"] == 0.25


@pytest.fixture
def fake_package(monkeypatch):
    """A package with a ``solvers`` module whose functions call each other
    through module globals and are listed in a ``SOLVERS`` table, and
    whose ``quaternion`` module is counted; every other traced name is
    missing."""
    solvers = types.ModuleType("fakepkg.solvers")
    quaternion = types.ModuleType("fakepkg.quaternion")
    exec("def embed(v):\n    return v\n", vars(quaternion))
    monkeypatch.setitem(sys.modules, "fakepkg", types.ModuleType("fakepkg"))
    monkeypatch.setitem(sys.modules, "fakepkg.quaternion", quaternion)
    monkeypatch.setitem(sys.modules, "fakepkg.solvers", solvers)
    exec(textwrap.dedent("""
        from fakepkg.quaternion import embed

        class Result:
            iterations = 7

        def eigen_sym4(m):
            return embed(m)

        def solve_closed_form(c):
            eigen_sym4(c)
            return c

        def solve_nonlinear(c):
            solve_closed_form(c)
            eigen_sym4(c)
            return Result()

        SOLVERS = {"closed-form": solve_closed_form, "nonlinear": solve_nonlinear}
    """), vars(solvers))
    return solvers


def test_tracer_wraps_tables_and_restores(fake_package):
    originals = dict(vars(fake_package))
    tracer = tracing.Tracer().install("fakepkg")
    try:
        fake_package.SOLVERS["nonlinear"]("x")
    finally:
        tracer.restore()

    names = [span[0] for span in tracer.spans]
    parents = [span[3] for span in tracer.spans]
    assert names == ["solvers.nonlinear", "solvers.closed_form",
                     "solvers.eigen_sym4", "solvers.eigen_sym4"]
    assert parents == [-1, 0, 1, 0]
    assert tracer.spans[0][5] == 7
    assert tracer.counts["quaternion.embed"] == 2
    assert "solvers.solve_tsai_lenz" in tracer.absent
    assert "cli.main" in tracer.absent
    for name in ("solve_nonlinear", "solve_closed_form", "eigen_sym4", "embed"):
        assert getattr(fake_package, name) is originals[name]
    assert fake_package.SOLVERS["nonlinear"] is originals["solve_nonlinear"]


def test_comparator_flags_a_row_perturbed_by_1e_6():
    reference = (REFERENCE_DIR / "sweep-count" / "count.csv").read_text()
    assert compare_csv(reference, reference) == []
    lines = reference.splitlines()
    fields = lines[4].split(",")
    for scale, flagged in ((1 + 1e-6, True), (1 + 1e-12, False)):
        changed = list(fields)
        changed[2] = repr(float(fields[2]) * scale)
        text = "\n".join(lines[:4] + [",".join(changed)] + lines[5:]) + "\n"
        assert bool(compare_csv(text, reference)) == flagged


def test_structural_checks_of_a_sweep_csv():
    reference = (REFERENCE_DIR / "sweep-count" / "count.csv").read_text()
    assert check_sweep_csv(reference, [2, 5, 9], 1000) == ([], 0)
    problems, _ = check_sweep_csv(reference.replace("e_tr", "e_t"), [2, 5, 9], 1000)
    assert problems
    problems, _ = check_sweep_csv(reference, [2, 6, 9], 1000)
    assert problems
    problems, _ = check_sweep_csv(reference.replace(",0\n", ",nan\n", 1), [2, 5, 9], 1000)
    assert problems
