"""YAML dataset and solution documents: reading, validating and writing.

This module only turns documents into arrays and back; synthetic datasets
are built in ``simulate`` (``simulate.synthetic_dataset``).

A dataset file is one YAML mapping::

    formulation: classical            # or: perspective
    hand_poses:                       # hand -> robot base, 4x4 row-major, mm
      - [[...], [...], [...], [0.0, 0.0, 0.0, 1.0]]
    camera_extrinsics:                # calibration -> camera, classical only
      - [[...], [...], [...], [0.0, 0.0, 0.0, 1.0]]
    perspective_matrices:             # 3x4 row-major, perspective only
      - [[...], [...], [...]]
    metadata: {}                      # optional mapping; absent or null is {}

Exactly one of ``camera_extrinsics`` / ``perspective_matrices`` must be
present and must match the formulation tag.  Lists must have equal length
and at least 2 entries; exactly 2 positions (a single motion) load with a
warning, since one motion cannot determine the transform uniquely.
Every matrix entry must be a finite YAML number (``true``, a quoted
string or an integer beyond float range is not one), and the left 3x3
block of every perspective matrix invertible; a perspective matrix may
have any nonzero scale.  Rotation blocks farther than 1e-6 from
orthonormal are rejected; closer ones are polar-projected onto the
rotation group, and the bottom row is set to exactly (0, 0, 0, 1).

A :class:`Dataset` holds the formulation tag and each list as one array.
Each list gets one stacked check.  Only a list that does not parse as one
finite array of numbers is parsed entry by entry, to name its first
structurally bad entry, and the entries before that one are checked as a
stack.  Either way the error names the first bad entry, with the message
of its first failing check.

YAML is read and written through libyaml's C scanner, parser and emitter
when PyYAML was built with it (``yaml.CSafeLoader`` / ``CSafeDumper``),
and through PyYAML's pure-Python ones otherwise.  Both feed the same
Python constructor and representer, so documents and bytes are the same.
A file that is not valid UTF-8, or holds a date that does not exist
(``2001-13-45``), is a ParseError.

A solution document records one estimate in every common parametrization
(quaternion, matrix, axis-angle) plus the two residual metrics; loading
one rejects a quaternion, translation or residual entry that is not a
finite YAML number, a negative residual, an ``iterations`` that is not a
YAML integer >= 0 (a boolean reads as 0 or 1), and a ``converged`` that is
not a YAML boolean.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
import yaml

from .errors import ParseError, SchemaError, SingularProjectionError
from .geometry import (
    MAX_BOTTOM_ROW_DEVIATION,
    MIN_BLOCK_DETERMINANT,
    ConstraintSet,
    Formulation,
    _bottom_row_deviation,
    _homogeneous,
    classical_constraints,
    orthonormalize,
    perspective_constraints,
)
from .quaternion import axis_angle
from .solvers import HandEyeSolution, Method

_EXTRINSIC_ROTATION_TOL = 1e-6
_EYE3 = np.eye(3)
# YAML scalar types of a numeric entry; numpy would also read a bool or a
# numeric string as a float.
_NUMBERS = frozenset((int, float))

_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


@dataclass
class Dataset:
    """In-memory form of a dataset file: (n, 4, 4) hand poses, and the
    camera side laid out like ``simulate.Scenario.camera_poses``: (n, 4, 4)
    extrinsics (classical) or (n, 3, 4) perspective matrices (perspective)."""

    formulation: Formulation
    hand_poses: np.ndarray
    camera_poses: np.ndarray
    metadata: dict = field(default_factory=dict)

    def constraints(self) -> ConstraintSet:
        if self.formulation == Formulation.CLASSICAL:
            return classical_constraints(self.camera_poses, self.hand_poses)
        return perspective_constraints(self.camera_poses, self.hand_poses)


def _matrix(entry, rows: int, what: str) -> np.ndarray:
    try:
        m = np.array(entry, dtype=float)
    except (TypeError, ValueError, OverflowError) as err:
        raise SchemaError(f"{what}: not a numeric matrix ({err})") from err
    if m.shape != (rows, 4):
        raise SchemaError(f"{what}: expected {rows}x4, got {m.shape}")
    for x in chain.from_iterable(entry):
        if type(x) not in _NUMBERS:
            raise SchemaError(f"{what}: entry {x!r} is not a number")
    if not np.isfinite(m).all():
        raise SchemaError(f"{what}: non-finite entry")
    return m


def _stack(raw: list, rows: int, what: str) -> tuple[np.ndarray, SchemaError | None]:
    """The entries of a list as one finite (k, rows, 4) array of numbers.

    k is the length of the list, or, when an entry is structurally bad
    (ragged, not a number, non-finite), the index of the first such entry,
    which is returned with its error.  Only then is the list parsed one
    entry at a time.
    """
    try:
        m = np.array(raw, dtype=float)
        stacked = (
            m.shape == (len(raw), rows, 4)
            and np.isfinite(m).all()
            and _NUMBERS.issuperset(map(type, chain.from_iterable(chain.from_iterable(raw))))
        )
    except (TypeError, ValueError, OverflowError):
        stacked = False
    if stacked:
        return m, None
    entries, error = [], None
    for i, entry in enumerate(raw):
        try:
            entries.append(_matrix(entry, rows, f"{what}[{i}]"))
        except SchemaError as err:
            error = err
            break
    return np.reshape(entries, (-1, rows, 4)), error


def _rigid_motions(raw: list, what: str) -> np.ndarray:
    """The poses of a list as one (n, 4, 4) array, checked and
    orthonormalized as one stack."""
    m, error = _stack(raw, 4, what)
    r = m[:, :3, :3]
    residual = np.linalg.norm(np.swapaxes(r, -1, -2) @ r - _EYE3, axis=(-2, -1))
    bad_row = _bottom_row_deviation(m) > MAX_BOTTOM_ROW_DEVIATION
    bad = bad_row | (residual > _EXTRINSIC_ROTATION_TOL) | (np.linalg.det(r) <= 0)
    if bad.any():
        i = int(np.argmax(bad))
        if bad_row[i]:
            raise SchemaError(f"{what}[{i}]: bottom row {m[i, 3].tolist()} is not (0, 0, 0, 1)")
        raise SchemaError(f"{what}[{i}]: rotation block residual {residual[i]:.3e} (or reflection)")
    if error is not None:
        raise error
    return _homogeneous(orthonormalize(r), m[:, :3, 3])


def _perspective_matrices(raw: list, what: str) -> np.ndarray:
    """The 3x4 matrices of a list as one (n, 3, 4) array, checked as one
    stack."""
    m, error = _stack(raw, 3, what)
    det = np.linalg.det(m[:, :, :3])
    bad = np.abs(det) <= MIN_BLOCK_DETERMINANT
    if bad.any():
        i = int(np.argmax(bad))
        raise SingularProjectionError(f"{what}[{i}]: left 3x3 block determinant {det[i]:.3e}")
    if error is not None:
        raise error
    return m


# The document key and the stacked check of each formulation's camera list.
_CAMERA = {
    Formulation.CLASSICAL: ("camera_extrinsics", _rigid_motions),
    Formulation.PERSPECTIVE: ("perspective_matrices", _perspective_matrices),
}


def _load_yaml(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.load(fh, Loader=_LOADER)
    except (yaml.YAMLError, ValueError) as err:  # ValueError: bad UTF-8 or date
        raise ParseError(f"{path}: {err}") from err
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be a mapping")
    return doc


def load_dataset(path) -> Dataset:
    doc = _load_yaml(path)
    try:
        formulation = Formulation(doc.get("formulation"))
    except ValueError:
        raise SchemaError(
            f"formulation: expected one of {[f.value for f in Formulation]}, "
            f"got {doc.get('formulation')!r}"
        ) from None
    key, check = _CAMERA[formulation]
    keys = [k for k, _ in _CAMERA.values()]
    unknown = set(doc) - {"formulation", "hand_poses", "metadata", *keys}
    if unknown:
        raise SchemaError(f"unknown keys: {sorted(unknown)}")

    hand_raw = doc.get("hand_poses")
    if not isinstance(hand_raw, list):
        raise SchemaError("hand_poses: missing or not a list")
    hand_poses = _rigid_motions(hand_raw, "hand_poses")

    present = [k for k in keys if k in doc]
    if len(present) != 1:
        raise SchemaError(f"exactly one of {' / '.join(keys)} must be present")
    if present != [key]:
        raise SchemaError(
            f"formulation {formulation.value!r} does not match the payload ({present[0]})"
        )
    raw = doc[key]
    if not isinstance(raw, list):
        raise SchemaError(f"{key}: not a list")
    camera_poses = check(raw, key)

    if len(camera_poses) != len(hand_poses):
        raise SchemaError(
            f"list lengths differ: {len(camera_poses)} camera entries, "
            f"{len(hand_poses)} hand_poses"
        )
    if len(hand_poses) < 2:
        raise SchemaError(f"need at least 2 positions, got {len(hand_poses)}")
    if len(hand_poses) == 2:
        warnings.warn(
            "dataset has exactly 2 positions (one motion); the hand-eye transform "
            "is not uniquely determined",
            stacklevel=2,
        )

    metadata = {} if doc.get("metadata") is None else doc["metadata"]
    if not isinstance(metadata, dict):
        raise SchemaError("metadata: not a mapping")
    return Dataset(formulation, hand_poses, camera_poses, metadata)


def _dump(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.dump(doc, fh, Dumper=_DUMPER, sort_keys=False, default_flow_style=None)


def save_dataset(dataset: Dataset, path) -> None:
    doc: dict = {"formulation": dataset.formulation.value}
    doc["hand_poses"] = dataset.hand_poses.tolist()
    doc[_CAMERA[dataset.formulation][0]] = dataset.camera_poses.tolist()
    if dataset.metadata:
        doc["metadata"] = dataset.metadata
    _dump(doc, path)


def save_solution(solution: HandEyeSolution, path) -> None:
    axis, angle = axis_angle(solution.rotation)
    doc = {
        "method": solution.method.value,
        "quaternion_wxyz": solution.rotation.tolist(),
        "rotation_matrix": solution.rotation_matrix.tolist(),
        "axis": axis.tolist(),
        "angle_rad": float(angle),
        "translation_mm": solution.translation.tolist(),
        "rotation_residual": float(solution.rotation_residual),
        "translation_residual": float(solution.translation_residual),
        "iterations": int(solution.iterations),
        "converged": bool(solution.converged),
    }
    _dump(doc, path)


def _numbers(entries, key: str, path) -> np.ndarray:
    """The entries of ``key``, each a YAML number, as a float array."""
    for x in entries:
        if type(x) not in _NUMBERS:
            raise SchemaError(f"{path}: {key}: entry {x!r} is not a number")
    try:
        return np.array(entries, dtype=float)
    except OverflowError as err:
        raise SchemaError(f"{path}: {key}: {err}") from err


def load_solution(path) -> HandEyeSolution:
    doc = _load_yaml(path)
    try:
        method = Method(doc["method"])
        q, t = (_numbers(doc[key], key, path) for key in ("quaternion_wxyz", "translation_mm"))
        rot_res, tr_res = (
            float(_numbers([doc[key]], key, path)[0])
            for key in ("rotation_residual", "translation_residual")
        )
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise SchemaError(f"{path}: {err!r}") from err
    if q.shape != (4,) or t.shape != (3,):
        raise SchemaError(f"{path}: quaternion_wxyz must have 4 entries, translation_mm 3")
    if not np.isfinite([*q, *t, rot_res, tr_res]).all():
        raise SchemaError(f"{path}: non-finite quaternion, translation or residual")
    for key in ("rotation_residual", "translation_residual"):
        if doc[key] < 0:
            raise SchemaError(f"{path}: {key}: entry {doc[key]!r} is not a number >= 0")
    norm = np.linalg.norm(q)
    if abs(norm - 1.0) > 1e-6:
        raise SchemaError(f"{path}: quaternion norm {norm:.6f} is not 1")
    iterations, converged = doc.get("iterations", 0), doc.get("converged", True)
    # A boolean is a YAML integer too, so iterations may read as 0 or 1.
    if not isinstance(iterations, int) or iterations < 0:
        raise SchemaError(f"{path}: iterations: entry {iterations!r} is not an integer >= 0")
    if type(converged) is not bool:
        raise SchemaError(f"{path}: converged: entry {converged!r} is not a boolean")
    return HandEyeSolution(q / norm, t, rot_res, tr_res, method, int(iterations), converged)
