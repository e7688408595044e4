import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import handeye.simulate as sim
from handeye.cli import (
    CSV_HEADER,
    EXIT_DEGENERATE,
    EXIT_FLAGS,
    EXIT_IO,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SCHEMA,
    main,
    report_csv,
)
from handeye import cli, solvers
from handeye.datafiles import Dataset, load_dataset, load_solution, save_dataset
from handeye.errors import CalibrationError
from handeye.simulate import Formulation, synthetic_dataset

from conftest import random_motion

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def test_generate_calibrate_residuals_round_trip(tmp_path, capsys):
    ds = tmp_path / "ds.yaml"
    sol = tmp_path / "sol.yaml"
    assert main(["generate", "--motions", "4", "--seed", "3", str(ds)]) == EXIT_OK
    assert main(["calibrate", str(ds), "--method", "nonlinear", "--output", str(sol)]) == EXIT_OK

    doc = yaml.safe_load(ds.read_text(encoding="utf-8"))
    truth_r = np.array(doc["metadata"]["ground_truth"]["rotation_matrix"])
    truth_t = np.array(doc["metadata"]["ground_truth"]["translation_mm"])
    solution = load_solution(sol)
    assert np.linalg.norm(solution.rotation_matrix - truth_r) < 1e-8
    assert np.linalg.norm(solution.translation - truth_t) / np.linalg.norm(truth_t) < 1e-7

    csv_path = tmp_path / "residuals.csv"
    assert main(["residuals", str(ds), str(sol), "--csv", str(csv_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "nonlinear" in out
    lines = csv_path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "method,rotation_residual,translation_residual"
    _, rot, tr = lines[1].split(",")
    assert float(rot) <= 1e-12
    assert float(tr) <= 1e-12


def test_generate_each_method_and_formulation(tmp_path):
    for formulation in ("classical", "perspective"):
        ds = tmp_path / f"{formulation}.yaml"
        assert main(["generate", "--formulation", formulation, "--seed", "1", str(ds)]) == EXIT_OK
        for method in ("tsai-lenz", "closed-form", "nonlinear"):
            sol = tmp_path / f"{formulation}-{method}.yaml"
            code = main(["calibrate", str(ds), "--method", method, "--output", str(sol)])
            assert code == EXIT_OK
            assert load_solution(sol).method.value == method


def test_generate_rejects_single_motion(tmp_path):
    assert main(["generate", "--motions", "1", str(tmp_path / "x.yaml")]) == EXIT_FLAGS


def test_calibrate_schema_errors(tmp_path):
    ds = synthetic_dataset(3, 0, Formulation.CLASSICAL)
    short = Dataset(Formulation.CLASSICAL, ds.hand_poses[:1], ds.camera_poses[:1])
    path = tmp_path / "short.yaml"
    save_dataset(short, path)
    assert main(["calibrate", str(path)]) == EXIT_SCHEMA

    good = tmp_path / "good.yaml"
    save_dataset(ds, good)
    assert main(["calibrate", str(good), "--formulation", "perspective"]) == EXIT_SCHEMA


@pytest.mark.parametrize("hand_poses", ["missing", None, 3, "poses", {"0": []}])
def test_calibrate_without_a_hand_pose_list_is_schema_error(tmp_path, capsys, hand_poses):
    path = tmp_path / "ds.yaml"
    save_dataset(synthetic_dataset(3, 0, Formulation.CLASSICAL), path)
    doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    if hand_poses == "missing":
        del doc["hand_poses"]
    else:
        doc["hand_poses"] = hand_poses
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert main(["calibrate", str(path)]) == EXIT_SCHEMA
    assert capsys.readouterr().err == "error: hand_poses: missing or not a list\n"


def test_calibrate_parse_and_io_errors(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("{unclosed", encoding="utf-8")
    assert main(["calibrate", str(bad)]) == EXIT_PARSE
    assert main(["calibrate", str(tmp_path / "missing.yaml")]) == 5


def test_calibrate_degenerate_dataset(tmp_path, rng):
    pose = random_motion(rng)
    hand = random_motion(rng)
    dataset = Dataset(
        Formulation.CLASSICAL, np.stack([hand.matrix] * 3), np.stack([pose.matrix] * 3)
    )
    path = tmp_path / "degenerate.yaml"
    save_dataset(dataset, path)
    assert main(["calibrate", str(path)]) == EXIT_DEGENERATE


@pytest.mark.parametrize("method", ["tsai-lenz", "closed-form", "nonlinear"])
def test_calibrate_zero_translation_dataset_is_degenerate(tmp_path, capsys, method):
    # Every translation zero: the relative translation residual is undefined.
    ds = synthetic_dataset(4, 0, Formulation.CLASSICAL)
    hand, camera = ds.hand_poses.copy(), ds.camera_poses.copy()
    hand[:, :3, 3] = camera[:, :3, 3] = 0.0
    path = tmp_path / "zero.yaml"
    save_dataset(Dataset(Formulation.CLASSICAL, hand, camera), path)
    assert main(["calibrate", str(path), "--method", method]) == EXIT_DEGENERATE
    assert "translation-transfer norm is zero" in capsys.readouterr().err


def test_residuals_malformed_solution(tmp_path):
    ds = tmp_path / "ds.yaml"
    main(["generate", str(ds)])
    broken = tmp_path / "broken.yaml"
    broken.write_text("{not yaml", encoding="utf-8")
    assert main(["residuals", str(ds), str(broken)]) == EXIT_PARSE


def test_residuals_with_a_dataset_as_its_solution_names_the_missing_key(capsys):
    sample = str(SAMPLES / "classical.yaml")
    assert main(["residuals", sample, sample]) == EXIT_SCHEMA
    assert capsys.readouterr().err == f"error: {sample}: missing key 'method'\n"


@pytest.mark.parametrize(
    "command, key, index, value",
    [
        ("calibrate", "hand_poses", (1, 0, 3), float("nan")),
        ("calibrate", "hand_poses", (1, 0, 0), float("nan")),
        ("residuals", "quaternion_wxyz", (0,), float("nan")),
        # a 400-digit YAML integer loads as a Python int no float can hold
        ("calibrate", "hand_poses", (1, 0, 3), 10**400),
        ("residuals", "quaternion_wxyz", (0,), 10**400),
        ("residuals", "axis", (0,), float("nan")),
        ("residuals", "rotation_matrix", (1, 2), 10**400),
    ],
    ids=[
        "hand-translation", "hand-rotation", "solution-quaternion",
        "hand-translation-oversized-integer", "solution-quaternion-oversized-integer",
        "solution-axis", "solution-rotation-matrix-oversized-integer",
    ],
)
def test_non_finite_entry_is_schema_error(tmp_path, capsys, command, key, index, value):
    ds = tmp_path / "ds.yaml"
    sol = tmp_path / "sol.yaml"
    assert main(["generate", str(ds)]) == EXIT_OK
    assert main(["calibrate", str(ds), "--output", str(sol)]) == EXIT_OK
    target = ds if command == "calibrate" else sol
    doc = yaml.safe_load(target.read_text(encoding="utf-8"))
    entry = doc[key]
    for i in index[:-1]:
        entry = entry[i]
    entry[index[-1]] = value
    target.write_text(yaml.safe_dump(doc), encoding="utf-8")
    capsys.readouterr()
    args = [command, str(ds)] + ([str(sol)] if command == "residuals" else [])
    assert main(args) == EXIT_SCHEMA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_residuals_rejects_an_angle_that_contradicts_the_quaternion(tmp_path, capsys):
    ds, sol = tmp_path / "ds.yaml", tmp_path / "sol.yaml"
    assert main(["generate", str(ds)]) == EXIT_OK
    assert main(["calibrate", str(ds), "--output", str(sol)]) == EXIT_OK
    doc = yaml.safe_load(sol.read_text(encoding="utf-8"))
    doc["angle_rad"] += 0.1
    sol.write_text(yaml.safe_dump(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["residuals", str(ds), str(sol)]) == EXIT_SCHEMA
    assert "angle_rad: differs from the quaternion's by 1.000e-01" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [("quaternion_wxyz", 1.0), ("translation_mm", None), ("axis", {"x": 1.0}), ("method", "bogus")],
    ids=["scalar-quaternion", "null-translation", "mapping-axis", "unknown-method"],
)
def test_residuals_names_a_solution_field_of_the_wrong_kind(tmp_path, capsys, key, value):
    ds, sol = tmp_path / "ds.yaml", tmp_path / "sol.yaml"
    assert main(["generate", str(ds)]) == EXIT_OK
    assert main(["calibrate", str(ds), "--output", str(sol)]) == EXIT_OK
    doc = yaml.safe_load(sol.read_text(encoding="utf-8"))
    doc[key] = value
    sol.write_text(yaml.safe_dump(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["residuals", str(ds), str(sol)]) == EXIT_SCHEMA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {sol}: {key}: "), err


def test_calibrate_capped_optimizer_exits_4(tmp_path, capsys, monkeypatch):
    ds = tmp_path / "ds.yaml"
    argv = ["generate", "--motions", "4", "--seed", "3", "--noise-level", "0.05", str(ds)]
    assert main(argv) == EXIT_OK
    monkeypatch.setattr(solvers, "MAX_ITERATIONS", 1)
    capsys.readouterr()
    assert main(["calibrate", str(ds), "--method", "nonlinear"]) == EXIT_NO_CONVERGENCE
    captured = capsys.readouterr()
    assert "iterations:           1\n" in captured.out
    assert captured.err == "warning: optimizer hit its iteration cap before converging\n"


TWO_POSITIONS_WARNING = (
    "warning: dataset has exactly 2 positions (one motion); "
    "the hand-eye transform is not uniquely determined"
)


def _two_positions(tmp_path):
    ds = synthetic_dataset(2, 0, Formulation.CLASSICAL)
    path = tmp_path / "two.yaml"
    save_dataset(Dataset(Formulation.CLASSICAL, ds.hand_poses[:2], ds.camera_poses[:2]), path)
    return path


def test_library_warning_is_one_line(tmp_path):
    # Run as a command, so Python's own warning display would reach stderr.
    result = _run_cli("calibrate", str(_two_positions(tmp_path)), "--method", "closed-form",
                      timeout=60)
    assert result.returncode == EXIT_DEGENERATE
    err = result.stderr.splitlines()
    assert len(err) == 2 and err[0] == TWO_POSITIONS_WARNING
    assert err[1].startswith("error: ") and "rotation is not unique" in err[1]


@pytest.mark.parametrize("command", ["calibrate", "residuals"])
def test_each_call_prints_its_own_warning(tmp_path, capsys, command):
    path, sol = _two_positions(tmp_path), tmp_path / "sol.yaml"
    assert main(["calibrate", str(SAMPLES / "classical.yaml"), "--output", str(sol)]) == EXIT_OK
    argv = [command, str(path)] + ([str(sol)] if command == "residuals" else [])
    for _ in range(2):
        capsys.readouterr()
        main(argv)
        assert capsys.readouterr().err.splitlines()[0] == TWO_POSITIONS_WARNING


def test_calibrate_output_into_missing_directory_exits_5(tmp_path, capsys):
    ds = tmp_path / "ds.yaml"
    assert main(["generate", str(ds)]) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "missing" / "sol.yaml"
    assert main(["calibrate", str(ds), "--output", str(out)]) == EXIT_IO
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(out) in err[0]


@pytest.mark.parametrize("command", ["calibrate", "residuals"])
def test_nonexistent_date_is_parse_error(tmp_path, capsys, command):
    # YAML reads 2001-13-45 as a timestamp, and constructing it fails
    ds = tmp_path / "ds.yaml"
    sol = tmp_path / "sol.yaml"
    assert main(["generate", str(ds)]) == EXIT_OK
    assert main(["calibrate", str(ds), "--output", str(sol)]) == EXIT_OK
    target = ds if command == "calibrate" else sol
    target.write_text(target.read_text(encoding="utf-8") + "when: 2001-13-45\n", encoding="utf-8")
    capsys.readouterr()
    args = [command, str(ds)] + ([str(sol)] if command == "residuals" else [])
    assert main(args) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {target}: month must be in 1..12\n"


@pytest.mark.parametrize("command", ["calibrate", "residuals"])
def test_non_utf8_file_is_parse_error(tmp_path, capsys, command):
    ds = tmp_path / "ds.yaml"
    sol = tmp_path / "sol.yaml"
    assert main(["generate", str(ds)]) == EXIT_OK
    assert main(["calibrate", str(ds), "--output", str(sol)]) == EXIT_OK
    target = ds if command == "calibrate" else sol
    raw = target.read_bytes()
    at = raw.index(b"hand_poses" if command == "calibrate" else b"quaternion_wxyz") + 20
    target.write_bytes(raw[:at] + b"\xff" + raw[at:])
    capsys.readouterr()
    args = [command, str(ds)] + ([str(sol)] if command == "residuals" else [])
    assert main(args) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {target}: 'utf-8' codec can't decode byte 0xff")


def _huge_classical(tmp_path):
    """The classical sample with every translation times 1e160: finite
    entries whose squares overflow."""
    doc = yaml.safe_load((SAMPLES / "classical.yaml").read_text(encoding="utf-8"))
    for key in ("hand_poses", "camera_extrinsics"):
        for matrix in doc[key]:
            for row in matrix[:3]:
                row[3] *= 1e160
    path = tmp_path / "huge.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("method", ["tsai-lenz", "closed-form", "nonlinear"])
def test_calibrate_overflowing_translations_are_degenerate(tmp_path, method):
    # The residual would print as nan.  Run as a command, so numpy's
    # warnings would reach stderr unfiltered.
    path = _huge_classical(tmp_path)
    result = subprocess.run(
        [sys.executable, "-m", "handeye.cli", "calibrate", str(path), "--method", method],
        env=dict(os.environ, PYTHONPATH=str(SAMPLES.parent / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == EXIT_DEGENERATE
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "error: translation residual is not finite: the input is out of numeric range"
    ]


@pytest.mark.parametrize("overflowing", ["solution", "dataset"])
def test_residuals_overflow_is_degenerate(tmp_path, overflowing):
    # A translation of 1e300 mm in the solution, or translations near 1e160
    # in the dataset: the residual would print as inf or nan.
    dataset, solution = SAMPLES / "classical.yaml", tmp_path / "solution.yaml"
    assert main(["calibrate", str(dataset), "--output", str(solution)]) == EXIT_OK
    if overflowing == "solution":
        doc = yaml.safe_load(solution.read_text(encoding="utf-8"))
        doc["translation_mm"] = [1e300, 0.0, 0.0]
        solution.write_text(yaml.safe_dump(doc), encoding="utf-8")
    else:
        dataset = _huge_classical(tmp_path)
    result = _run_cli("residuals", str(dataset), str(solution), timeout=60)
    assert result.returncode == EXIT_DEGENERATE
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "error: translation residual is not finite: the input is out of numeric range"
    ]


def _times_two(matrices):
    matrices[1] = [[2.0 * x for x in row] for row in matrices[1]]


def _negated(matrices):
    matrices[2] = [[-x for x in row] for row in matrices[2]]


def _m34_one(matrices):
    # the usual DLT output
    matrices[:] = [[[x / m[2][3] for x in row] for row in m] for m in matrices]


@pytest.mark.parametrize("rescale", [_times_two, _negated, _m34_one], ids=lambda f: f.__name__)
def test_calibrate_accepts_perspective_matrices_at_any_scale(tmp_path, rescale):
    sample = SAMPLES / "perspective.yaml"
    doc = yaml.safe_load(sample.read_text(encoding="utf-8"))
    rescale(doc["perspective_matrices"])
    path = tmp_path / "rescaled.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    solutions = []
    for i, dataset in enumerate((sample, path)):
        output = tmp_path / f"solution{i}.yaml"
        assert main(["calibrate", str(dataset), "--output", str(output)]) == EXIT_OK
        solutions.append(load_solution(output))
    expected, got = solutions
    assert np.max(np.abs(got.rotation - expected.rotation)) <= 1e-9
    assert np.linalg.norm(got.translation - expected.translation) <= 1e-9 * np.linalg.norm(
        expected.translation
    )


def _huge_entry_cases():
    """Every entry of the second pose or matrix of each list of the two
    samples, and the exit code ``calibrate`` gives it at +-1e300: a pose's
    rotation block or bottom row is a schema error; a translation, or any
    entry of a perspective matrix, leaves no usable motion."""
    for sample, keys in (
        ("classical", ("hand_poses", "camera_extrinsics")),
        ("perspective", ("hand_poses", "perspective_matrices")),
    ):
        for key in keys:
            rigid = key != "perspective_matrices"
            for r in range(4 if rigid else 3):
                for c in range(4):
                    code = EXIT_SCHEMA if rigid and (r == 3 or c < 3) else EXIT_DEGENERATE
                    for value in (1e300, -1e300):
                        name = f"{sample}-{key}-{r}{c}-{'+' if value > 0 else '-'}"
                        yield pytest.param(sample, key, (r, c), value, code, id=name)


@pytest.mark.parametrize("sample, key, entry, value, code", list(_huge_entry_cases()))
def test_calibrate_huge_entry_prints_one_error_line(
    tmp_path, capsys, sample, key, entry, value, code
):
    doc = yaml.safe_load((SAMPLES / f"{sample}.yaml").read_text(encoding="utf-8"))
    r, c = entry
    doc[key][1][r][c] = value
    path = tmp_path / "huge.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    with warnings.catch_warnings():
        # shown, so a numpy warning would print as one more stderr line
        warnings.simplefilter("always")
        assert main(["calibrate", str(path)]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_residuals_multiple_solutions(tmp_path, capsys):
    ds = tmp_path / "ds.yaml"
    main(["generate", "--seed", "5", str(ds)])
    paths = []
    for method in ("tsai-lenz", "closed-form", "nonlinear"):
        sol = tmp_path / f"{method}.yaml"
        main(["calibrate", str(ds), "--method", method, "--output", str(sol)])
        paths.append(str(sol))
    capsys.readouterr()
    assert main(["residuals", str(ds)] + paths) == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 2 + 3  # header, rule, one row per method


def test_simulate_zero_level(tmp_path):
    out = tmp_path / "zero.csv"
    code = main(
        [
            "simulate",
            "--distribution", "gaussian",
            "--targets", "rotation-translation",
            "--levels", "0",
            "--trials", "1",
            "--seed", "0",
            "--output", str(out),
        ]
    )
    assert code == EXIT_OK
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    for line in lines[1:]:
        _, _, e_rot, e_tr, failed = line.split(",")
        assert float(e_rot) <= 1e-8
        assert float(e_tr) <= 1e-8
        assert failed == "0"


def test_simulate_deterministic_bytes(tmp_path):
    args = [
        "simulate",
        "--distribution", "uniform",
        "--targets", "rotation",
        "--levels", "0.02,0.04",
        "--trials", "10",
        "--seed", "7",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--output", str(a)]) == EXIT_OK
    assert main(args + ["--output", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_simulate_grid_mode_writes_one_file_per_combination(tmp_path):
    out = tmp_path / "grid.csv"
    code = main(["simulate", "--levels", "0.01", "--trials", "1", "--output", str(out)])
    assert code == EXIT_OK
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [
        "grid_gaussian_rotation-translation.csv",
        "grid_gaussian_rotation.csv",
        "grid_uniform_rotation-translation.csv",
        "grid_uniform_rotation.csv",
    ]


@pytest.mark.parametrize(
    "output, mode",
    [
        (".", ["--levels", "0.01"]),
        ("", ["--levels", "0.01"]),
        ("/", ["--levels", "0.01"]),
        (".", ["--motions", "2"]),
        (".", ["--levels", "0.01", "--distribution", "gaussian", "--targets", "rotation"]),
    ],
    ids=["dot", "empty", "root", "motions-dot", "one-combination-dot"],
)
def test_simulate_output_without_a_file_name_exits_5(
    tmp_path, capsys, monkeypatch, output, mode
):
    monkeypatch.chdir(tmp_path)
    code = main(["simulate", *mode, "--trials", "1", "--output", output])
    assert code == EXIT_IO
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert list(tmp_path.iterdir()) == []


_SIMULATE_MODES = {
    "one-combination": ["--levels", "0.01", "--distribution", "gaussian", "--targets", "rotation"],
    "grid": ["--levels", "0.01"],
    "motions-grid": ["--motions", "2,3"],
}


@pytest.mark.parametrize("mode", _SIMULATE_MODES)
def test_simulate_output_to_an_existing_directory_exits_5_before_any_sweep(
    tmp_path, capsys, monkeypatch, mode
):
    # one rule for one pair and for several: a directory is never an output
    def no_sweep(*args):
        raise AssertionError("a sweep ran with a directory as its output")

    monkeypatch.setattr(cli, "noise_sweep", no_sweep)
    monkeypatch.setattr(cli, "motion_count_sweep", no_sweep)
    sub = tmp_path / "sub"
    sub.mkdir()
    argv = ["simulate", *_SIMULATE_MODES[mode], "--trials", "1", "--output", str(sub)]
    assert main(argv) == EXIT_IO
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{sub}'\n"
    assert list(tmp_path.rglob("*")) == [sub]


@pytest.mark.parametrize("mode", _SIMULATE_MODES)
def test_simulate_unwritable_output_fails_before_any_sweep(tmp_path, capsys, monkeypatch, mode):
    def no_sweep(*args):
        raise AssertionError("a sweep ran before the output was opened")

    monkeypatch.setattr(cli, "noise_sweep", no_sweep)
    monkeypatch.setattr(cli, "motion_count_sweep", no_sweep)
    out = tmp_path / "missing" / "x.csv"
    argv = ["simulate", *_SIMULATE_MODES[mode], "--trials", "1", "--output", str(out)]
    assert main(argv) == EXIT_IO
    err = capsys.readouterr().err.splitlines()
    # one combination writes x.csv itself, more write x_<distribution>_<targets>.csv
    assert len(err) == 1 and err[0].startswith("error: ") and str(out.with_suffix("")) in err[0]


@pytest.mark.parametrize("mode", ["one-combination", "grid"])
def test_simulate_failing_later_leaves_no_empty_file(tmp_path, capsys, monkeypatch, mode):
    # one level and one trial: each combination's sweep is one block, and
    # the one grid call solves them in combination order
    blocks = []
    solve_block = sim._solve_block

    def second_fails(task):
        blocks.append(task)
        if len(blocks) == 2 or mode == "one-combination":
            raise CalibrationError("no sweep")
        return solve_block(task)

    monkeypatch.setattr(sim, "_solve_block", second_fails)
    # an existing file keeps its content until its sweep is written
    kept = tmp_path / ("grid.csv" if mode == "one-combination" else "grid_gaussian_rotation.csv")
    kept.write_text("old\n", encoding="utf-8")
    out = tmp_path / "grid.csv"
    argv = ["simulate", *_SIMULATE_MODES[mode], "--trials", "1", "--output", str(out)]
    assert main(argv) == EXIT_DEGENERATE
    assert capsys.readouterr().err == "error: no sweep\n"
    assert kept.read_text(encoding="utf-8") == "old\n"
    written = sorted(p.name for p in tmp_path.iterdir() if p != kept)
    # no CSV is written until every combination is solved: the first
    # combination's solved sweep is not written when the second fails
    assert len(blocks) == (2 if mode == "grid" else 1)
    assert written == []


@pytest.mark.parametrize(
    "mode", [["--levels", "0.01,0.03"], ["--motions", "2,3"]], ids=["levels", "motions"]
)
def test_simulate_stdout_holds_each_pair_csv_under_its_header(tmp_path, capsys, mode):
    argv = ["simulate", *mode, "--distribution", "both", "--targets", "both", "--trials", "2"]
    out = tmp_path / "r.csv"
    assert main(argv + ["--output", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(argv) == EXIT_OK
    expected = b""
    for dist in ("uniform", "gaussian"):
        for targets in ("rotation", "rotation-translation"):
            expected += f"# distribution={dist} targets={targets}\n".encode()
            expected += (tmp_path / f"r_{dist}_{targets}.csv").read_bytes()
    captured = capsys.readouterr()
    assert captured.out.encode() == expected
    assert captured.err == ""


def test_simulate_output_to_the_null_device(capsys):
    mode = _SIMULATE_MODES["one-combination"]
    assert main(["simulate", *mode, "--trials", "1", "--output", os.devnull]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_simulate_default_levels(tmp_path):
    out = tmp_path / "default.csv"
    code = main(
        [
            "simulate",
            "--distribution", "gaussian",
            "--targets", "rotation",
            "--trials", "1",
            "--output", str(out),
        ]
    )
    assert code == EXIT_OK
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    swept = sorted({float(line.split(",")[0]) for line in lines[1:]})
    assert swept == [0.01, 0.02, 0.03, 0.04, 0.05, 0.06]


def test_simulate_negative_zero_level_prints_as_zero(tmp_path):
    out = tmp_path / "zero.csv"
    code = main(
        ["simulate", "--levels=-0.0,0.01", "--distribution", "gaussian", "--targets",
         "rotation", "--trials", "1", "--output", str(out)]
    )
    assert code == EXIT_OK
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["0"] * 3 + ["0.01"] * 3


def test_simulate_motion_count_mode(tmp_path):
    out = tmp_path / "counts.csv"
    code = main(
        [
            "simulate",
            "--distribution", "gaussian",
            "--targets", "rotation-translation",
            "--motions", "2:3",
            "--trials", "2",
            "--output", str(out),
        ]
    )
    assert code == EXIT_OK
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert {line.split(",")[0] for line in lines[1:]} == {"2", "3"}


def test_simulate_flag_conflicts(tmp_path):
    assert main(["simulate", "--levels", "0.01", "--motions", "2:4"]) == EXIT_FLAGS
    assert main(["simulate", "--levels", "-0.5"]) == EXIT_FLAGS
    assert main(["simulate", "--motions", "1:3"]) == EXIT_FLAGS
    assert main(["simulate", "--trials", "0"]) == EXIT_FLAGS
    assert main(["nonsense"]) == EXIT_FLAGS


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--levels", "nan", "--trials", "1", "--output"],
        ["simulate", "--levels", "0.01,inf", "--trials", "1", "--output"],
        ["generate", "--noise-level", "nan"],
    ],
    ids=["simulate-levels-nan", "simulate-levels-inf", "generate-noise-level-nan"],
)
def test_non_finite_noise_level_is_flag_error(tmp_path, argv):
    out = tmp_path / "out"
    assert main(argv + [str(out)]) == EXIT_FLAGS
    assert list(tmp_path.iterdir()) == []


def _run_cli(*argv, timeout, **options):
    """``handeye argv`` as a child process, numpy warnings raised as errors."""
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "handeye.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(SAMPLES.parent / "src")),
        capture_output=True, text=True, timeout=timeout, **options,
    )


def test_generate_more_motions_than_axes_fit_is_degenerate(tmp_path):
    # About 60 axes 15 degrees apart fill the sphere; the 80th never fits.
    out = tmp_path / "out.yaml"
    result = _run_cli("generate", "--motions", "80", str(out), timeout=60)
    assert result.returncode == EXIT_DEGENERATE
    err = result.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot place 80 motion axes")
    assert "15 degrees" in err[0]
    assert not out.exists()


def test_generate_stops_at_the_first_axis_with_no_room(tmp_path, capsys):
    # in process, through every draw of the scenario's axis loop
    out = tmp_path / "out.yaml"
    assert main(["generate", "--motions", "61", str(out)]) == EXIT_DEGENERATE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "no room for axis 61" in err[0]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--noise-level", "1e200"],
        ["simulate", "--levels", "1e200", "--trials", "3", "--output"],
    ],
    ids=["generate", "simulate"],
)
def test_overflowing_noise_level_is_degenerate(tmp_path, argv):
    result = _run_cli(*argv, str(tmp_path / "out"), timeout=60)
    assert result.returncode == EXIT_DEGENERATE
    err = result.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "1e+200" in err[0]
    assert list(tmp_path.iterdir()) == []


def _cap_address_space():
    limit = 1536 << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_simulate_huge_motion_range_stops_at_the_first_unplaceable_count(tmp_path):
    # A list of 10^12 counts would not fit in 1.5 GB; the range stays lazy,
    # and the sweep's scenarios fail at the 61st motion axis.
    out = tmp_path / "out.csv"
    result = _run_cli(
        "simulate", "--motions", "2:1000000000000", "--trials", "1",
        "--distribution", "gaussian", "--targets", "rotation", "--output", str(out),
        timeout=120, preexec_fn=_cap_address_space,
    )
    assert result.returncode == EXIT_DEGENERATE
    err = result.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot place 61 motion axes")
    assert not out.exists()


def test_simulate_empty_motion_range_is_flag_error(capsys):
    assert main(["simulate", "--motions", "9:2"]) == EXIT_FLAGS
    assert capsys.readouterr().err == "error: --motions: '9:2' is empty\n"


def test_generate_seed_beyond_64_bits_has_its_own_poses(tmp_path):
    datasets = []
    for seed in (0, 2**64):
        path = tmp_path / f"{seed}.yaml"
        assert main(["generate", "--seed", str(seed), str(path)]) == EXIT_OK
        datasets.append(load_dataset(path))
    assert datasets[1].metadata["generator"]["seed"] == 2**64
    for key in ("hand_poses", "camera_poses"):
        assert not np.array_equal(getattr(datasets[0], key), getattr(datasets[1], key))


def test_simulate_seed_beyond_64_bits_has_its_own_streams(tmp_path):
    csvs = []
    for seed in (5, 2**64 + 5):
        out = tmp_path / f"{seed}.csv"
        argv = ["simulate", "--distribution", "gaussian", "--targets", "rotation",
                "--levels", "0.02", "--trials", "3", "--seed", str(seed), "--output", str(out)]
        assert main(argv) == EXIT_OK
        csvs.append(out.read_bytes())
    assert csvs[0] != csvs[1]


@pytest.mark.parametrize("argv", [["generate"], ["simulate", "--output"]], ids=lambda a: a[0])
def test_negative_seed_is_flag_error(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([argv[0], "--seed", "-1", *argv[1:], str(out)]) == EXIT_FLAGS
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: argument --seed: need a non-negative integer, got -1"]
    assert list(tmp_path.iterdir()) == []


def test_report_csv_shape():
    from handeye.simulate import ReportRow
    from handeye.solvers import Method

    text = report_csv((ReportRow(0.01, Method.TSAI_LENZ, 0.5, 0.25, 2),))
    assert text == f"{CSV_HEADER}\n0.01,tsai-lenz,0.5,0.25,2\n"
