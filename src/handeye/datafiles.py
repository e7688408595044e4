"""YAML dataset and solution documents.

A dataset file is one YAML mapping::

    formulation: classical            # or: perspective
    hand_poses:                       # hand -> robot base, 4x4 row-major, mm
      - [[...], [...], [...], [0.0, 0.0, 0.0, 1.0]]
    camera_extrinsics:                # calibration -> camera, classical only
      - [[...], [...], [...], [0.0, 0.0, 0.0, 1.0]]
    perspective_matrices:             # 3x4 row-major, perspective only
      - [[...], [...], [...]]
    metadata: {}                      # optional free-form mapping

Exactly one of ``camera_extrinsics`` / ``perspective_matrices`` must be
present and must match the formulation tag.  Lists must have equal length
and at least 2 entries; exactly 2 positions (a single motion) load with a
warning, since one motion cannot determine the transform uniquely.
Every matrix entry must be a finite YAML number (``true`` or a quoted
string is not one), and the left 3x3 block of every perspective matrix
invertible; a perspective matrix may have any nonzero scale.  Rotation
blocks farther than 1e-6 from orthonormal are rejected; closer ones are
polar-projected onto the rotation group, and the bottom row is set to
exactly (0, 0, 0, 1).

A :class:`Dataset` holds each pose list as one array: (n, 4, 4) poses and
(n, 3, 4) perspective matrices.  Each list is validated as that stacked
array; only when the stacked checks find a bad entry are the entries
checked one at a time, so the error names the first bad index.

YAML is read and written through libyaml's C scanner, parser and emitter
when PyYAML was built with it (``yaml.CSafeLoader`` / ``CSafeDumper``),
and through PyYAML's pure-Python ones otherwise.  Both feed the same
Python constructor and representer, so documents and bytes are the same.
A file that is not valid UTF-8 is a ParseError.

A solution document records one estimate in every common parametrization
(quaternion, matrix, axis-angle) plus the two residual metrics; loading
one rejects a non-finite quaternion, translation or residual.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
import yaml

from .errors import ParseError, SchemaError, SingularProjectionError
from .geometry import (
    ConstraintSet,
    PerspectiveMatrix,
    _compose,
    _homogeneous,
    _invert,
    classical_constraints,
    orthonormalize,
    perspective_constraints,
)
from .quaternion import axis_angle
from .simulate import (
    Formulation,
    NoiseModel,
    NoiseTargets,
    _draw_counts,
    _generator,
    _perturbed,
    default_scenario,
    perspective_scenario,
    random_intrinsics,
)
from .solvers import HandEyeSolution, Method

_EXTRINSIC_ROTATION_TOL = 1e-6
_BOTTOM_ROW_TOL = 1e-9
_BOTTOM_ROW = np.array([0.0, 0.0, 0.0, 1.0])
_EYE3 = np.eye(3)
# YAML scalar types of a matrix entry; numpy would also read a bool or a
# numeric string as a float.
_NUMBERS = frozenset((int, float))

_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


@dataclass
class Dataset:
    """In-memory form of a dataset file: (n, 4, 4) hand poses plus either
    (n, 4, 4) camera extrinsics or (n, 3, 4) perspective matrices."""

    formulation: Formulation
    hand_poses: np.ndarray
    camera_extrinsics: np.ndarray | None = None
    perspective_matrices: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def constraints(self) -> ConstraintSet:
        if self.formulation == Formulation.CLASSICAL:
            return classical_constraints(self.camera_extrinsics, self.hand_poses)
        return perspective_constraints(self.perspective_matrices, self.hand_poses)


def _matrix(entry, rows: int, what: str) -> np.ndarray:
    try:
        m = np.array(entry, dtype=float)
    except (TypeError, ValueError) as err:
        raise SchemaError(f"{what}: not a numeric matrix ({err})") from err
    if m.shape != (rows, 4):
        raise SchemaError(f"{what}: expected {rows}x4, got {m.shape}")
    for x in chain.from_iterable(entry):
        if type(x) not in _NUMBERS:
            raise SchemaError(f"{what}: entry {x!r} is not a number")
    if not np.isfinite(m).all():
        raise SchemaError(f"{what}: non-finite entry")
    return m


def _check_pose(entry, what: str) -> None:
    """The checks of one 4x4 pose entry; raises the first that fails."""
    m = _matrix(entry, 4, what)
    if np.max(np.abs(m[3] - _BOTTOM_ROW)) > _BOTTOM_ROW_TOL:
        raise SchemaError(f"{what}: bottom row {m[3].tolist()} is not (0, 0, 0, 1)")
    r = m[:3, :3]
    residual = np.linalg.norm(r.T @ r - _EYE3)
    if residual > _EXTRINSIC_ROTATION_TOL or np.linalg.det(r) <= 0:
        raise SchemaError(f"{what}: rotation block residual {residual:.3e} (or reflection)")


def _stack(raw: list, rows: int) -> np.ndarray | None:
    """The entries of a list as one finite (n, rows, 4) array of numbers,
    or None."""
    if not raw:
        return np.empty((0, rows, 4))
    try:
        m = np.array(raw, dtype=float)
    except (TypeError, ValueError):
        return None
    if m.shape != (len(raw), rows, 4) or not np.isfinite(m).all():
        return None
    if not _NUMBERS.issuperset(map(type, chain.from_iterable(chain.from_iterable(raw)))):
        return None
    return m


def _rigid_motions(raw: list, what: str) -> np.ndarray:
    """The poses of a list as one (n, 4, 4) array, checked and
    orthonormalized as one stack."""
    m = _stack(raw, 4)
    if m is not None:
        r = m[:, :3, :3]
        residual = np.linalg.norm(np.swapaxes(r, -1, -2) @ r - _EYE3, axis=(-2, -1))
        ok = (
            (np.max(np.abs(m[:, 3] - _BOTTOM_ROW), axis=-1) <= _BOTTOM_ROW_TOL)
            & (residual <= _EXTRINSIC_ROTATION_TOL)
            & (np.linalg.det(r) > 0)
        )
    if m is None or not ok.all():
        # One entry at a time, so the first bad entry raises with its index.
        for i, entry in enumerate(raw):
            _check_pose(entry, f"{what}[{i}]")
    return _homogeneous(orthonormalize(r), m[:, :3, 3])


def _perspective_matrices(raw: list, what: str) -> np.ndarray:
    """The 3x4 matrices of a list as one (n, 3, 4) array, checked as one
    stack."""
    m = _stack(raw, 3)
    if m is None or (np.abs(np.linalg.det(m[:, :, :3])) <= 1e-12).any():
        # One entry at a time, so the first bad entry raises with its index.
        for i, entry in enumerate(raw):
            name = f"{what}[{i}]"
            try:
                PerspectiveMatrix.from_matrix(_matrix(entry, 3, name))
            except SingularProjectionError as err:
                raise SingularProjectionError(f"{name}: {err}") from None
    return m


def _load_yaml(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.load(fh, Loader=_LOADER)
    except (yaml.YAMLError, UnicodeDecodeError) as err:
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
    unknown = set(doc) - {
        "formulation",
        "hand_poses",
        "camera_extrinsics",
        "perspective_matrices",
        "metadata",
    }
    if unknown:
        raise SchemaError(f"unknown keys: {sorted(unknown)}")

    hand_raw = doc.get("hand_poses")
    if not isinstance(hand_raw, list):
        raise SchemaError("hand_poses: missing or not a list")
    hand_poses = _rigid_motions(hand_raw, "hand_poses")

    has_extr = "camera_extrinsics" in doc
    has_persp = "perspective_matrices" in doc
    if has_extr == has_persp:
        raise SchemaError(
            "exactly one of camera_extrinsics / perspective_matrices must be present"
        )
    expected = Formulation.CLASSICAL if has_extr else Formulation.PERSPECTIVE
    if formulation != expected:
        raise SchemaError(
            f"formulation {formulation.value!r} does not match the payload "
            f"({'camera_extrinsics' if has_extr else 'perspective_matrices'})"
        )

    camera_extrinsics = None
    perspective_matrices = None
    if has_extr:
        raw = doc["camera_extrinsics"]
        if not isinstance(raw, list):
            raise SchemaError("camera_extrinsics: not a list")
        camera_extrinsics = _rigid_motions(raw, "camera_extrinsics")
        n_camera = len(camera_extrinsics)
    else:
        raw = doc["perspective_matrices"]
        if not isinstance(raw, list):
            raise SchemaError("perspective_matrices: not a list")
        perspective_matrices = _perspective_matrices(raw, "perspective_matrices")
        n_camera = len(perspective_matrices)

    if n_camera != len(hand_poses):
        raise SchemaError(
            f"list lengths differ: {n_camera} camera entries, {len(hand_poses)} hand_poses"
        )
    if len(hand_poses) < 2:
        raise SchemaError(f"need at least 2 positions, got {len(hand_poses)}")
    if len(hand_poses) == 2:
        warnings.warn(
            "dataset has exactly 2 positions (one motion); the hand-eye transform "
            "is not uniquely determined",
            stacklevel=2,
        )

    metadata = doc.get("metadata") or {}
    if not isinstance(metadata, dict):
        raise SchemaError("metadata: not a mapping")
    return Dataset(formulation, hand_poses, camera_extrinsics, perspective_matrices, metadata)


def _listify(m: np.ndarray):
    return [[float(x) for x in row] for row in np.atleast_2d(m)]


def _dump(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.dump(doc, fh, Dumper=_DUMPER, sort_keys=False, default_flow_style=None)


def save_dataset(dataset: Dataset, path) -> None:
    doc: dict = {"formulation": dataset.formulation.value}
    doc["hand_poses"] = [_listify(p) for p in dataset.hand_poses]
    if dataset.camera_extrinsics is not None:
        doc["camera_extrinsics"] = [_listify(p) for p in dataset.camera_extrinsics]
    if dataset.perspective_matrices is not None:
        doc["perspective_matrices"] = [_listify(m) for m in dataset.perspective_matrices]
    if dataset.metadata:
        doc["metadata"] = dataset.metadata
    _dump(doc, path)


def save_solution(solution: HandEyeSolution, path) -> None:
    axis, angle = axis_angle(solution.rotation)
    doc = {
        "method": solution.method.value,
        "quaternion_wxyz": [float(x) for x in solution.rotation],
        "rotation_matrix": _listify(solution.rotation_matrix),
        "axis": [float(x) for x in axis],
        "angle_rad": float(angle),
        "translation_mm": [float(x) for x in solution.translation],
        "rotation_residual": float(solution.rotation_residual),
        "translation_residual": float(solution.translation_residual),
        "iterations": int(solution.iterations),
        "converged": bool(solution.converged),
    }
    _dump(doc, path)


def load_solution(path) -> HandEyeSolution:
    doc = _load_yaml(path)
    try:
        method = Method(doc["method"])
        q = np.array(doc["quaternion_wxyz"], dtype=float)
        t = np.array(doc["translation_mm"], dtype=float)
        rot_res = float(doc["rotation_residual"])
        tr_res = float(doc["translation_residual"])
        iterations = int(doc.get("iterations", 0))
        converged = bool(doc.get("converged", True))
    except (KeyError, TypeError, ValueError) as err:
        raise SchemaError(f"{path}: {err!r}") from err
    if q.shape != (4,) or t.shape != (3,):
        raise SchemaError(f"{path}: quaternion_wxyz must have 4 entries, translation_mm 3")
    if not np.isfinite([*q, *t, rot_res, tr_res]).all():
        raise SchemaError(f"{path}: non-finite quaternion, translation or residual")
    norm = np.linalg.norm(q)
    if abs(norm - 1.0) > 1e-6:
        raise SchemaError(f"{path}: quaternion norm {norm:.6f} is not 1")
    return HandEyeSolution(q / norm, t, rot_res, tr_res, method, iterations, converged)


# ---------------------------------------------------------------------------
# synthetic datasets

def synthetic_dataset(
    n: int, seed: int, formulation: Formulation, noise: NoiseModel | None = None
) -> Dataset:
    """Schema-valid dataset with its ground truth recorded in metadata.

    Builds the default random scenario for ``n`` motions, optionally
    perturbs the relative motions (the camera motions' draws first, then
    the hand motions'), and integrates them back into absolute poses
    (first hand pose pinned at the identity; the solvers only see
    relative motions, so that gauge is free).
    """
    scenario = (
        default_scenario(n, seed)
        if formulation == Formulation.CLASSICAL
        else perspective_scenario(n, seed)
    )
    rotation, translation = scenario.motion_arrays
    if noise is not None and noise.level > 0:
        rng = _generator(noise.seed, 2)
        scale = scenario.nominal_translation
        trans_level = (
            noise.level if noise.targets == NoiseTargets.ROTATION_AND_TRANSLATION else 0.0
        )
        k = sum(_draw_counts(noise.distribution, noise.level, trans_level, scale))
        draws = rng.random(2 * n * k).reshape(2, n, k).swapaxes(0, 1)
        rotation, translation = _perturbed(
            rotation, translation, noise.distribution, noise.level, trans_level, scale, draws
        )
    ra, ta = rotation[:, 0], translation[:, 0]  # camera motions
    rb, tb = rotation[:, 1], translation[:, 1]  # hand motions

    truth = scenario.ground_truth
    metadata = {
        "ground_truth": {
            "rotation_matrix": _listify(truth.rotation),
            "translation_mm": [float(x) for x in truth.translation],
        },
        "generator": {
            "motions": int(n),
            "seed": int(seed),
            "noise_level": float(noise.level) if noise else 0.0,
            "noise_distribution": noise.distribution.value if noise else None,
            "noise_targets": noise.targets.value if noise else None,
        },
    }

    eye, zero = np.eye(3), np.zeros(3)
    if formulation == Formulation.CLASSICAL:
        # pose i + 1 = motion i o pose i, one position after the other
        first = scenario.camera_poses[0]
        camera = [(first[:3, :3], first[:3, 3])]
        hand = [(eye, zero)]
        for i in range(n):
            camera.append(_compose(ra[i], ta[i], *camera[-1]))
            hand.append(_compose(*hand[-1], *_invert(rb[i], tb[i])))
        camera_poses = _homogeneous(*(np.stack(a) for a in zip(*camera)))
        hand_poses = _homogeneous(*(np.stack(a) for a in zip(*hand)))
        return Dataset(formulation, hand_poses, camera_extrinsics=camera_poses, metadata=metadata)

    # Perspective: motions are referenced to position 1, and the matrices
    # are rebuilt from the (possibly perturbed) camera poses with one
    # intrinsic block.
    intr = random_intrinsics(_generator(seed, 1))
    first = default_scenario(n, seed).camera_poses[0]
    camera = _compose(first[:3, :3], first[:3, 3], ra, ta)
    hand = _compose(eye, zero, *_invert(rb, tb))
    camera_poses = np.concatenate([first[None], _homogeneous(*camera)])
    hand_poses = np.concatenate([np.eye(4)[None], _homogeneous(*hand)])
    return Dataset(
        formulation, hand_poses, perspective_matrices=intr.matrices(camera_poses),
        metadata=metadata,
    )
