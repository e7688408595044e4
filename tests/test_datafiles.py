import ast
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

import handeye as he
from handeye import datafiles
from handeye import quaternion as quat
from handeye.datafiles import (
    Dataset,
    load_dataset,
    load_solution,
    save_dataset,
    save_solution,
)
from handeye.errors import CalibrationError, ParseError, SchemaError, SingularProjectionError
from handeye.geometry import RigidMotion, orthonormalize
from handeye.simulate import (
    Distribution,
    Formulation,
    NoiseModel,
    NoiseTargets,
    synthetic_dataset,
)

from conftest import random_motion

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "samples"
HUGE = 10**400  # a YAML integer no float can hold


def test_datafiles_imports_nothing_from_simulate():
    tree = ast.parse((ROOT / "src" / "handeye" / "datafiles.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None) or ""
            for alias in node.names:
                assert "simulate" not in f"{module}.{alias.name}".split("."), ast.unparse(node)


def _truth_of(dataset):
    meta = dataset.metadata["ground_truth"]
    return np.array(meta["rotation_matrix"]), np.array(meta["translation_mm"])


@pytest.mark.parametrize("formulation", [Formulation.CLASSICAL, Formulation.PERSPECTIVE])
def test_synthetic_dataset_solves_to_embedded_truth(formulation):
    for seed in range(5):
        dataset = synthetic_dataset(4, seed, formulation)
        truth_r, truth_t = _truth_of(dataset)
        sol = he.solve(he.Method.NONLINEAR, dataset.constraints())
        assert np.linalg.norm(sol.rotation_matrix - truth_r) < 1e-8
        assert np.linalg.norm(sol.translation - truth_t) / np.linalg.norm(truth_t) < 1e-7


def test_synthetic_dataset_with_noise_still_loads(tmp_path):
    noise = NoiseModel(Distribution.GAUSSIAN, 0.03, NoiseTargets.ROTATION_AND_TRANSLATION, 1)
    dataset = synthetic_dataset(4, 1, Formulation.CLASSICAL, noise)
    path = tmp_path / "noisy.yaml"
    save_dataset(dataset, path)
    loaded = load_dataset(path)
    sol = he.solve(he.Method.NONLINEAR, loaded.constraints())
    truth_r, _ = _truth_of(loaded)
    # noisy, so recovery is approximate but sane
    assert np.linalg.norm(sol.rotation_matrix - truth_r) < 0.5


@pytest.mark.parametrize("formulation", [Formulation.CLASSICAL, Formulation.PERSPECTIVE])
def test_dataset_round_trip(tmp_path, formulation):
    dataset = synthetic_dataset(3, 7, formulation)
    path = tmp_path / "ds.yaml"
    save_dataset(dataset, path)
    loaded = load_dataset(path)
    assert loaded.formulation == dataset.formulation
    a, b = dataset.constraints(), loaded.constraints()
    assert len(a) == len(b) == 3
    assert np.allclose(a.camera_rotation, b.camera_rotation, atol=1e-12)
    assert np.allclose(a.camera_translation, b.camera_translation, atol=1e-9)
    assert np.allclose(a.hand_translation, b.hand_translation, atol=1e-9)


def _write(tmp_path, doc):
    path = tmp_path / "doc.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return path


def _valid_doc(n=3, formulation=Formulation.CLASSICAL):
    dataset = synthetic_dataset(n, 0, formulation)
    classical = formulation == Formulation.CLASSICAL
    camera = "camera_extrinsics" if classical else "perspective_matrices"
    return {
        "formulation": formulation.value,
        "hand_poses": dataset.hand_poses.tolist(),
        camera: dataset.camera_poses.tolist(),
    }


def test_load_rejects_single_position(tmp_path):
    doc = _valid_doc()
    doc["hand_poses"] = doc["hand_poses"][:1]
    doc["camera_extrinsics"] = doc["camera_extrinsics"][:1]
    with pytest.raises(SchemaError, match="at least 2"):
        load_dataset(_write(tmp_path, doc))


def test_load_warns_at_two_positions(tmp_path):
    doc = _valid_doc()
    doc["hand_poses"] = doc["hand_poses"][:2]
    doc["camera_extrinsics"] = doc["camera_extrinsics"][:2]
    with pytest.warns(UserWarning, match="not uniquely determined"):
        load_dataset(_write(tmp_path, doc))


def test_load_rejects_formulation_mismatch(tmp_path):
    doc = _valid_doc()
    doc["formulation"] = "perspective"
    with pytest.raises(SchemaError, match="does not match"):
        load_dataset(_write(tmp_path, doc))


def test_load_rejects_both_payloads(tmp_path):
    doc = _valid_doc()
    doc["perspective_matrices"] = [[[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1.0, 0]]] * 4
    with pytest.raises(SchemaError, match="exactly one"):
        load_dataset(_write(tmp_path, doc))


def test_load_rejects_unequal_lengths(tmp_path):
    doc = _valid_doc()
    doc["hand_poses"] = doc["hand_poses"][:-1]
    with pytest.raises(SchemaError, match="lengths differ"):
        load_dataset(_write(tmp_path, doc))


def test_load_rejects_bad_bottom_row(tmp_path):
    doc = _valid_doc()
    doc["hand_poses"][1][3] = [0.0, 0.0, 1e-6, 1.0]
    with pytest.raises(SchemaError, match=r"hand_poses\[1\]"):
        load_dataset(_write(tmp_path, doc))


def test_load_rejects_non_rotation_block(tmp_path):
    doc = _valid_doc()
    doc["camera_extrinsics"][2][0][0] *= 1.5
    with pytest.raises(SchemaError, match=r"camera_extrinsics\[2\]"):
        load_dataset(_write(tmp_path, doc))


def test_load_rejects_unknown_keys(tmp_path):
    doc = _valid_doc()
    doc["extra"] = 1
    with pytest.raises(SchemaError, match="unknown keys"):
        load_dataset(_write(tmp_path, doc))


def test_load_rejects_bad_yaml(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("formulation: [unclosed", encoding="utf-8")
    with pytest.raises(ParseError):
        load_dataset(path)
    path.write_text("- just\n- a\n- list\n", encoding="utf-8")
    with pytest.raises(ParseError, match="mapping"):
        load_dataset(path)


def test_loader_orthonormalizes_printed_rotations(tmp_path, rng):
    # values rounded to 9 decimals are accepted and projected back
    motion = random_motion(rng, 200.0)
    rounded = np.round(motion.matrix, 9)
    doc = _valid_doc()
    doc["hand_poses"][0] = [[float(x) for x in row] for row in rounded]
    dataset = load_dataset(_write(tmp_path, doc))
    r = dataset.hand_poses[0, :3, :3]
    assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)


def test_solution_document_round_trip(tmp_path):
    dataset = synthetic_dataset(3, 2, Formulation.CLASSICAL)
    sol = he.solve(he.Method.CLOSED_FORM, dataset.constraints())
    path = tmp_path / "sol.yaml"
    save_solution(sol, path)
    loaded = load_solution(path)
    assert loaded.method is sol.method
    assert np.allclose(loaded.rotation, sol.rotation, atol=1e-12)
    assert np.allclose(loaded.translation, sol.translation, atol=1e-12)
    assert loaded.converged == sol.converged
    doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    assert set(doc) >= {
        "method",
        "quaternion_wxyz",
        "rotation_matrix",
        "axis",
        "angle_rad",
        "translation_mm",
        "rotation_residual",
        "translation_residual",
    }


def test_solution_document_schema_errors(tmp_path):
    path = tmp_path / "sol.yaml"
    path.write_text("method: closed-form\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_solution(path)
    path.write_text(
        "method: closed-form\nquaternion_wxyz: [2, 0, 0, 0]\ntranslation_mm: [0, 0, 0]\n"
        "rotation_residual: 0\ntranslation_residual: 0\n",
        encoding="utf-8",
    )
    with pytest.raises(SchemaError, match="norm"):
        load_solution(path)


def _solution_doc(tmp_path):
    path = tmp_path / "sol.yaml"
    dataset = synthetic_dataset(3, 0, Formulation.CLASSICAL)
    save_solution(he.solve(he.Method.CLOSED_FORM, dataset.constraints()), path)
    return path, yaml.safe_load(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("quaternion_wxyz", [True, 0, 0, 0], "quaternion_wxyz: entry True is not a number"),
        ("quaternion_wxyz", ["1.0", 0, 0, 0], "quaternion_wxyz: entry '1.0' is not a number"),
        (
            "quaternion_wxyz",
            [HUGE, 0, 0, 0],
            "quaternion_wxyz: not numeric (int too large to convert to float)",
        ),
        ("translation_mm", [0.0, False, 0.0], "translation_mm: entry False is not a number"),
        ("rotation_residual", True, "rotation_residual: entry True is not a number"),
        ("translation_residual", "0.5", "translation_residual: entry '0.5' is not a number"),
        ("translation_residual", [0.5], "translation_residual: expected shape (), got (1,)"),
        ("rotation_residual", -1.0, "rotation_residual: entry -1.0 is not a number >= 0"),
        ("translation_residual", -1, "translation_residual: entry -1 is not a number >= 0"),
        ("iterations", -7.9, "iterations: entry -7.9 is not an integer >= 0"),
        ("iterations", "3", "iterations: entry '3' is not an integer >= 0"),
        ("iterations", -1, "iterations: entry -1 is not an integer >= 0"),
        ("iterations", None, "iterations: entry None is not an integer >= 0"),
        ("converged", "false", "converged: entry 'false' is not a boolean"),
        ("converged", 1, "converged: entry 1 is not a boolean"),
    ],
)
def test_solution_entries_must_be_numbers(tmp_path, key, value, message):
    # numpy and float() would read a boolean or a numeric string as a number
    path, doc = _solution_doc(tmp_path)
    doc[key] = value
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        load_solution(path)
    assert str(err.value) == f"{path}: {message}"


def test_solution_iterations_and_converged_flag_still_load(tmp_path):
    path, doc = _solution_doc(tmp_path)
    doc["iterations"], doc["converged"] = True, True
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    solution = load_solution(path)
    assert (solution.iterations, solution.converged) == (1, True)


def test_solution_negative_zero_residuals_load(tmp_path):
    path, doc = _solution_doc(tmp_path)
    doc["rotation_residual"] = doc["translation_residual"] = -0.0
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    solution = load_solution(path)
    assert (solution.rotation_residual, solution.translation_residual) == (0.0, 0.0)


# One value of each kind a document can hold in the wrong place.
_WRONG_SCALARS = {
    "bool": True,
    "none": None,
    "text": "x",
    "nested-list": [[1, 2], [0]],
    "mapping": {"a": 1},
    "nan": float("nan"),
    "negative": -1.0,
    "huge": 2**1050,
    "minus-huge": -(2**1050),
}
# What the schema accepts: a boolean is a YAML integer, and any YAML
# integer >= 0 counts iterations.
_ACCEPTED = {("iterations", "bool"), ("iterations", "huge"), ("converged", "bool")}


@pytest.mark.parametrize("kind", list(_WRONG_SCALARS))
@pytest.mark.parametrize(
    "key",
    ["method", "angle_rad", "rotation_residual", "translation_residual", "iterations", "converged"],
)
def test_a_wrong_scalar_in_a_solution_is_a_calibration_error(tmp_path, key, kind):
    path, doc = _solution_doc(tmp_path)
    expected = load_solution(path)
    doc[key] = _WRONG_SCALARS[kind]
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    if (key, kind) in _ACCEPTED:
        solution = load_solution(path)
        assert np.array_equal(solution.rotation, expected.rotation)
        assert np.array_equal(solution.translation, expected.translation)
    else:
        with pytest.raises(CalibrationError):
            load_solution(path)


def _with(doc, **fields):
    return {**doc, **fields}


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda d: _with(d, angle_rad=d["angle_rad"] + 2e-6), "angle_rad: differs from the"),
        (lambda d: _with(d, angle_rad=-d["angle_rad"]), "angle_rad: differs from the"),
        (lambda d: _with(d, axis=[-a for a in d["axis"]]), "axis: differs from the"),
        (lambda d: _with(d, axis=[2 * a for a in d["axis"]]), "axis: differs from the"),
        (
            lambda d: _with(d, rotation_matrix=np.transpose(d["rotation_matrix"]).tolist()),
            "rotation_matrix: differs from the",
        ),
        (
            lambda d: _with(d, rotation_matrix=d["rotation_matrix"][:2]),
            "rotation_matrix: expected shape (3, 3), got (2, 3)",
        ),
        (
            lambda d: _with(d, rotation_matrix=[1.0, 0.0, 0.0]),
            "rotation_matrix: expected shape (3, 3), got (3,)",
        ),
        (lambda d: _with(d, axis=d["axis"] + [0.0]), "axis: expected shape (3,), got (4,)"),
        (lambda d: _with(d, axis=[1e308] * 3), "axis: differs from the quaternion's by inf"),
        (lambda d: _with(d, axis=[d["axis"][0], "0", 0.0]), "axis: entry '0' is not a number"),
        (
            lambda d: _with(d, rotation_matrix=[[float("inf")] * 3] * 3),
            "rotation_matrix: non-finite entry",
        ),
    ],
    ids=[
        "angle-off", "angle-negated", "axis-negated", "axis-not-unit", "matrix-transposed",
        "matrix-2x3", "matrix-flat", "axis-4", "axis-huge", "axis-text", "matrix-inf",
    ],
)
def test_a_field_restating_the_quaternion_must_match_it(tmp_path, change, message):
    path, doc = _solution_doc(tmp_path)
    path.write_text(yaml.safe_dump(change(doc)), encoding="utf-8")
    with pytest.raises(SchemaError, match=f"^{re.escape(f'{path}: {message}')}"):
        load_solution(path)


def test_restated_fields_within_tolerance_or_absent_load(tmp_path):
    path, doc = _solution_doc(tmp_path)
    expected = load_solution(path)
    nudged = [_with(doc, angle_rad=doc["angle_rad"] + 5e-7)]
    nudged.append({k: v for k, v in doc.items() if k not in ("rotation_matrix", "axis", "angle_rad")})
    for changed in nudged:
        path.write_text(yaml.safe_dump(changed), encoding="utf-8")
        assert np.array_equal(load_solution(path).rotation, expected.rotation)


@pytest.mark.parametrize(
    "quaternion, axes",
    [
        # the identity has no axis: any unit vector restates it
        ([1.0, 0.0, 0.0, 0.0], [[1.0, 0.0, 0.0], [0.0, 0.6, -0.8]]),
        # a half turn about a is one about -a
        ([0.0, 0.0, 1.0, 0.0], [[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]]),
    ],
    ids=["identity", "half-turn"],
)
def test_axis_of_an_identity_or_half_turn_loads_with_either_choice(tmp_path, quaternion, axes):
    path, doc = _solution_doc(tmp_path)
    angle = 0.0 if quaternion[0] == 1.0 else float(np.pi)
    doc.update(
        quaternion_wxyz=quaternion,
        rotation_matrix=quat.to_rotation_matrix(np.array(quaternion)).tolist(),
        angle_rad=angle,
    )
    for axis in axes:
        path.write_text(yaml.safe_dump(_with(doc, axis=axis)), encoding="utf-8")
        assert np.array_equal(load_solution(path).rotation, quaternion)
    path.write_text(yaml.safe_dump(_with(doc, axis=[0.0, 0.0, 0.5])), encoding="utf-8")
    with pytest.raises(SchemaError, match="axis: differs from the"):
        load_solution(path)


# ---------------------------------------------------------------------------
# stacked validation: the first bad entry is named with the per-entry message

_POSE = [[1.0, 0.0, 0.0, 5.0], [0.0, 1.0, 0.0, 6.0], [0.0, 0.0, 1.0, 7.0], [0.0, 0.0, 0.0, 1.0]]
_RAGGED = re.escape("not numeric (") + ".*inhomogeneous.*"
_OVERFLOW = re.escape("not numeric (int too large to convert to float)")

# case: (replacement for an entry, the message after the entry's name, as a regex)
_POSE_CASES = {
    "ragged": ([_POSE[0], _POSE[1][:2], _POSE[2], _POSE[3]], _RAGGED),
    "wrong-shape": (_POSE[:3], re.escape("expected shape (4, 4), got (3, 4)")),
    "nan": (
        [_POSE[0], [0.0, float("nan"), 0.0, 6.0], _POSE[2], _POSE[3]],
        re.escape("non-finite entry"),
    ),
    "boolean": (
        [_POSE[0], [0.0, True, 0.0, 6.0], _POSE[2], _POSE[3]],
        re.escape("entry True is not a number"),
    ),
    "string": (
        [_POSE[0], _POSE[1], [0.0, 0.0, "1.0", 7.0], _POSE[3]],
        re.escape("entry '1.0' is not a number"),
    ),
    "oversized-integer": ([_POSE[0], [0.0, 1.0, 0.0, HUGE], _POSE[2], _POSE[3]], _OVERFLOW),
    "bottom-row": (
        _POSE[:3] + [[0.0, 0.0, 1e-6, 1.0]],
        re.escape("bottom row [0.0, 0.0, 1e-06, 1.0] is not (0, 0, 0, 1)"),
    ),
    "reflection": (
        [_POSE[0], _POSE[1], [0.0, 0.0, -1.0, 7.0], _POSE[3]],
        re.escape("rotation block residual 0.000e+00 (or reflection)"),
    ),
    "non-orthonormal": (
        [[1.5, 0.0, 0.0, 5.0]] + _POSE[1:],
        re.escape("rotation block residual 1.250e+00 (or reflection)"),
    ),
}

_PROJECTION = [[800.0, 0.0, 320.0, 10.0], [0.0, 800.0, 240.0, 20.0], [0.0, 0.0, 1.0, 30.0]]
_PROJECTION_CASES = {
    "ragged": ([_PROJECTION[0], _PROJECTION[1][:3], _PROJECTION[2]], _RAGGED),
    "wrong-shape": (_POSE, re.escape("expected shape (3, 4), got (4, 4)")),
    "nan": (
        [_PROJECTION[0], _PROJECTION[1], [0.0, 0.0, float("inf"), 30.0]],
        re.escape("non-finite entry"),
    ),
    "boolean": (
        [_PROJECTION[0], _PROJECTION[1], [0.0, 0.0, True, 30.0]],
        re.escape("entry True is not a number"),
    ),
    "oversized-integer": ([[HUGE, 0.0, 320.0, 10.0]] + _PROJECTION[1:], _OVERFLOW),
}


def _bad_entry_cases():
    for key, formulation, cases in (
        ("hand_poses", Formulation.CLASSICAL, _POSE_CASES),
        ("hand_poses", Formulation.PERSPECTIVE, _POSE_CASES),
        ("camera_extrinsics", Formulation.CLASSICAL, _POSE_CASES),
        ("perspective_matrices", Formulation.PERSPECTIVE, _PROJECTION_CASES),
    ):
        for case in cases:
            name = f"{key}-{formulation.value}-{case}"
            yield pytest.param(key, formulation, cases[case], id=name)


@pytest.mark.parametrize("key, formulation, case", list(_bad_entry_cases()))
@pytest.mark.parametrize("index", [0, 2, 4])
def test_stacked_validation_names_the_bad_entry(tmp_path, key, formulation, case, index):
    entry, message = case
    doc = _valid_doc(4, formulation)
    doc[key][index] = entry
    with pytest.raises(SchemaError) as err:
        load_dataset(_write(tmp_path, doc))
    assert re.fullmatch(re.escape(f"{key}[{index}]: ") + message, str(err.value))


@pytest.mark.parametrize("key, formulation, case", list(_bad_entry_cases()))
def test_stacked_validation_reports_the_first_of_two_bad_entries(
    tmp_path, key, formulation, case
):
    entry, message = case
    cases = _PROJECTION_CASES if key == "perspective_matrices" else _POSE_CASES
    doc = _valid_doc(4, formulation)
    for other, _ in cases.values():
        doc[key][1] = entry
        doc[key][3] = other
        with pytest.raises(SchemaError) as err:
            load_dataset(_write(tmp_path, doc))
        assert re.fullmatch(re.escape(f"{key}[1]: ") + message, str(err.value))


def test_booleans_outside_matrices_still_load(tmp_path):
    doc = _valid_doc(3)
    doc["metadata"] = {"checked": True, "notes": [False, 1.0]}
    assert load_dataset(_write(tmp_path, doc)).metadata == doc["metadata"]


@pytest.mark.parametrize("metadata", [[], 0, False, ""], ids=["list", "zero", "false", "empty"])
def test_falsy_metadata_that_is_not_a_mapping_is_rejected(tmp_path, metadata):
    doc = _valid_doc(3)
    doc["metadata"] = metadata
    with pytest.raises(SchemaError, match="metadata: not a mapping"):
        load_dataset(_write(tmp_path, doc))


def test_null_metadata_loads_as_an_empty_mapping(tmp_path):
    doc = _valid_doc(3)
    doc["metadata"] = None
    assert load_dataset(_write(tmp_path, doc)).metadata == {}


_SINGULAR = [[1.0, 0.0, 0.0, 1.0], [2.0, 0.0, 0.0, 2.0], [0.0, 0.0, 1.0, 3.0]]


@pytest.mark.parametrize("index", [0, 2, 4])
def test_stacked_validation_names_a_singular_projection(tmp_path, index):
    doc = _valid_doc(4, Formulation.PERSPECTIVE)
    doc["perspective_matrices"][index] = _SINGULAR
    with pytest.raises(SingularProjectionError) as err:
        load_dataset(_write(tmp_path, doc))
    assert str(err.value) == f"perspective_matrices[{index}]: left 3x3 block determinant 0.000e+00"


def test_stacked_validation_checks_entries_in_order_across_kinds(tmp_path):
    # A singular projection before a non-finite one fails on the singular
    # block, as checking one entry at a time does.
    doc = _valid_doc(4, Formulation.PERSPECTIVE)
    doc["perspective_matrices"][1] = _SINGULAR
    doc["perspective_matrices"][2] = _PROJECTION_CASES["nan"][0]
    with pytest.raises(SingularProjectionError, match=re.escape("perspective_matrices[1]: left")):
        load_dataset(_write(tmp_path, doc))
    # Hand poses are checked before the camera list.
    doc = _valid_doc(4)
    doc["camera_extrinsics"][0] = _POSE_CASES["nan"][0]
    doc["hand_poses"][3] = _POSE_CASES["reflection"][0]
    with pytest.raises(SchemaError, match=re.escape("hand_poses[3]: rotation block")):
        load_dataset(_write(tmp_path, doc))


@pytest.mark.parametrize("formulation", [Formulation.CLASSICAL, Formulation.PERSPECTIVE])
def test_stacked_validation_matches_per_entry_construction(tmp_path, formulation):
    doc = _valid_doc(6, formulation)
    # rounded entries exercise the orthonormalizing projection
    doc["hand_poses"] = np.round(doc["hand_poses"], 9).tolist()
    dataset = load_dataset(_write(tmp_path, doc))

    def one_at_a_time(raw):
        # each entry orthonormalized alone, with the matrix RigidMotion writes
        m = np.array(raw)
        return RigidMotion(orthonormalize(m[:3, :3]), m[:3, 3]).matrix

    assert dataset.hand_poses.shape == (7, 4, 4)
    for pose, raw in zip(dataset.hand_poses, doc["hand_poses"]):
        assert np.array_equal(pose, one_at_a_time(raw))
    if formulation == Formulation.CLASSICAL:
        assert dataset.camera_poses.shape == (7, 4, 4)
        for pose, raw in zip(dataset.camera_poses, doc["camera_extrinsics"]):
            assert np.array_equal(pose, one_at_a_time(raw))
    else:
        assert np.array_equal(dataset.camera_poses, np.array(doc["perspective_matrices"]))


def test_empty_pose_lists_fail_on_their_length(tmp_path):
    doc = _valid_doc(4)
    doc["hand_poses"] = []
    with pytest.raises(SchemaError, match="lengths differ"):
        load_dataset(_write(tmp_path, doc))
    doc["camera_extrinsics"] = []
    with pytest.raises(SchemaError, match="at least 2"):
        load_dataset(_write(tmp_path, doc))


# ---------------------------------------------------------------------------
# libyaml and the pure-Python fallback agree


def _yaml_documents(tmp_path):
    paths = sorted(SAMPLES.glob("*.yaml"))
    for formulation in (Formulation.CLASSICAL, Formulation.PERSPECTIVE):
        for n in (2, 30):
            noise = NoiseModel(
                Distribution.GAUSSIAN, 0.01, NoiseTargets.ROTATION_AND_TRANSLATION, n
            )
            path = tmp_path / f"{formulation.value}_n{n}.yaml"
            save_dataset(synthetic_dataset(n, n, formulation, noise), path)
            paths.append(path)
    return paths


def _pure_python_dump(doc) -> str:
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=None)


def test_loaders_agree_on_samples_and_generated_datasets(tmp_path):
    assert datafiles._LOADER is (yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)
    assert datafiles._DUMPER is (yaml.CSafeDumper if yaml.__with_libyaml__ else yaml.SafeDumper)
    for path in _yaml_documents(tmp_path):
        expected = yaml.load(path.read_text(encoding="utf-8"), Loader=yaml.SafeLoader)
        assert datafiles._load_yaml(path) == expected, path.name


def test_dumpers_write_the_pure_python_bytes(tmp_path):
    for path in _yaml_documents(tmp_path):
        dataset = load_dataset(path)
        out = tmp_path / "resaved.yaml"
        save_dataset(dataset, out)
        doc = yaml.load(out.read_text(encoding="utf-8"), Loader=yaml.SafeLoader)
        assert out.read_text(encoding="utf-8") == _pure_python_dump(doc), path.name
        for method in he.Method:
            solution = he.solve(method, dataset.constraints())
            save_solution(solution, out)
            doc = yaml.load(out.read_text(encoding="utf-8"), Loader=yaml.SafeLoader)
            assert out.read_text(encoding="utf-8") == _pure_python_dump(doc), (path.name, method)
