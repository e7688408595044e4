"""YAML dataset and solution documents: reading, validating and writing.

This module only turns documents into arrays and back; synthetic datasets
are built in ``simulate`` (``simulate.synthetic_dataset``).

Every number a document carries, in a matrix, a vector or alone, is read
by one rule: the field must be a nested list of its shape (or a scalar)
whose entries are finite YAML numbers, so ``true``, a quoted string, an
integer beyond float range, ``.nan`` and ``.inf`` are not numbers.  A
field that breaks the rule is a SchemaError naming the field (and, in a
list of matrices, the entry) with the first failing check, in this order:
numeric conversion, shape, number type, finiteness.

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
warning, since one motion cannot determine the transform uniquely.  The
left 3x3 block of every perspective matrix must be invertible; a
perspective matrix may have any nonzero scale.  Rotation blocks farther
than 1e-6 from orthonormal are rejected; closer ones are polar-projected
onto the rotation group, and the bottom row is set to exactly (0, 0, 0, 1).

A :class:`Dataset` holds the formulation tag and each list as one array.
Each list is read as one stack.  Only a list that does not pass the number
rule as a whole is read entry by entry, to name its first bad entry, and
the entries before that one are checked as a stack.  Either way the error
names the first bad entry, with the message of its first failing check.

YAML is read and written through libyaml's C scanner, parser and emitter
when PyYAML was built with it (``yaml.CSafeLoader`` / ``CSafeDumper``),
and through PyYAML's pure-Python ones otherwise.  Both feed the same
Python constructor and representer, so documents and bytes are the same.
A file that is not valid UTF-8, or holds a date that does not exist
(``2001-13-45``), is a ParseError.

A solution document records one estimate in every common parametrization
(quaternion, matrix, axis-angle) plus the two residual metrics.  Loading
one reads ``quaternion_wxyz`` (4), ``translation_mm`` (3) and the two
residuals (scalars, >= 0) by the number rule, and rejects a ``method``
that names no solver, an ``iterations`` that is not a YAML integer >= 0
(a boolean reads as 0 or 1), and a ``converged`` that is not a YAML
boolean.  The estimate is read from the quaternion, whose norm must be 1
within 1e-6.  ``rotation_matrix`` (3x3), ``axis`` (3) and ``angle_rad``
restate it; each one present must pass the number rule and lie within
1e-6 of what the quaternion gives: the matrix entry by entry, the angle in
[0, pi], and the axis as a unit vector (any one for the identity, either
sign for a half turn).
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
from .quaternion import _ORTHONORMALITY_TOL, _rotation_check
from .quaternion import axis_angle, canonicalize, to_rotation_matrix
from .solvers import HandEyeSolution, Method

# Largest deviation of a solution's quaternion norm from 1, and of a field
# restating its rotation from what the quaternion gives.
_SOLUTION_TOL = 1e-6
# YAML scalar types of a number; numpy would also read a bool, None or a
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


def _numbers(value, shape: tuple, what: str) -> np.ndarray:
    """``value`` as a float array of ``shape`` by the number rule of the
    module docstring, or a SchemaError naming ``what``."""
    try:
        m = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as err:
        raise SchemaError(f"{what}: not numeric ({err})") from err
    if m.shape != shape:
        raise SchemaError(f"{what}: expected shape {shape}, got {m.shape}")
    leaves = [value]
    for _ in shape:
        leaves = chain.from_iterable(leaves)
    for x in leaves:
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
        return _numbers(raw, (len(raw), rows, 4), what), None
    except SchemaError:
        pass
    entries, error = [], None
    for i, entry in enumerate(raw):
        try:
            entries.append(_numbers(entry, (rows, 4), f"{what}[{i}]"))
        except SchemaError as err:
            error = err
            break
    return np.reshape(entries, (-1, rows, 4)), error


def _rigid_motions(raw: list, what: str) -> np.ndarray:
    """The poses of a list as one (n, 4, 4) array, checked and
    orthonormalized as one stack."""
    m, error = _stack(raw, 4, what)
    r = m[:, :3, :3]
    residual, bad_rotation = _rotation_check(r, _ORTHONORMALITY_TOL)
    bad_row = _bottom_row_deviation(m) > MAX_BOTTOM_ROW_DEVIATION
    bad = bad_row | bad_rotation
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


def _member(kind, value, what: str):
    """The member of the enum ``kind`` whose value is ``value``."""
    try:
        return kind(value)
    except ValueError:
        raise SchemaError(
            f"{what}: expected one of {[m.value for m in kind]}, got {value!r}"
        ) from None


def load_dataset(path) -> Dataset:
    doc = _load_yaml(path)
    formulation = _member(Formulation, doc.get("formulation"), "formulation")
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
            f"list lengths differ: {len(camera_poses)} {key}, {len(hand_poses)} hand_poses"
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


def _check_restated(doc: dict, q: np.ndarray, path) -> None:
    """Each of ``rotation_matrix``, ``axis`` and ``angle_rad`` present in
    ``doc`` must restate the unit quaternion ``q`` within ``_SOLUTION_TOL``."""
    q = canonicalize(q)
    angle = axis_angle(q)[1]

    def axis_deviation(a):
        # the quaternion turning by q's angle about a is +-q
        turn = np.concatenate([q[:1], np.linalg.norm(q[1:]) * a])
        return max(abs(np.linalg.norm(a) - 1.0), min(np.abs(turn - q).max(), np.abs(turn + q).max()))

    restated = {
        "rotation_matrix": ((3, 3), lambda m: np.abs(m - to_rotation_matrix(q)).max()),
        "axis": ((3,), axis_deviation),
        "angle_rad": ((), lambda a: abs(a - angle)),
    }
    for key, (shape, deviation) in restated.items():
        if key not in doc:
            continue
        value = _numbers(doc[key], shape, f"{path}: {key}")
        with np.errstate(over="ignore"):  # a huge axis's norm is inf, not a match
            off = deviation(value)
        if off > _SOLUTION_TOL:
            raise SchemaError(
                f"{path}: {key}: differs from the quaternion's by {off:.3e} "
                f"(tolerance {_SOLUTION_TOL:.0e})"
            )


def load_solution(path) -> HandEyeSolution:
    doc = _load_yaml(path)
    try:
        method = _member(Method, doc["method"], f"{path}: method")
        q, t, rot_res, tr_res = (
            _numbers(doc[key], shape, f"{path}: {key}")
            for key, shape in (
                ("quaternion_wxyz", (4,)),
                ("translation_mm", (3,)),
                ("rotation_residual", ()),
                ("translation_residual", ()),
            )
        )
    except KeyError as err:
        raise SchemaError(f"{path}: missing key {err.args[0]!r}") from None
    for key in ("rotation_residual", "translation_residual"):
        if doc[key] < 0:
            raise SchemaError(f"{path}: {key}: entry {doc[key]!r} is not a number >= 0")
    norm = np.linalg.norm(q)
    if abs(norm - 1.0) > _SOLUTION_TOL:
        raise SchemaError(f"{path}: quaternion_wxyz: norm {norm:.6f} is not 1")
    _check_restated(doc, q / norm, path)
    iterations, converged = doc.get("iterations", 0), doc.get("converged", True)
    # A boolean is a YAML integer too, so iterations may read as 0 or 1.
    if not isinstance(iterations, int) or iterations < 0:
        raise SchemaError(f"{path}: iterations: entry {iterations!r} is not an integer >= 0")
    if type(converged) is not bool:
        raise SchemaError(f"{path}: converged: entry {converged!r} is not a boolean")
    return HandEyeSolution(
        q / norm, t, float(rot_res), float(tr_res), method, int(iterations), converged
    )
