"""Every place that decides whether a 3x3 block is a rotation, on one
table of inputs.

Each site keeps its own tolerance and error type; all of them share
``quaternion._rotation_check``.  A row is either accepted or rejected with
the site's documented error, never with numpy's ``LinAlgError`` and never
with a floating-point warning.
"""

import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import handeye.geometry as geo
from handeye import quaternion as quat
from handeye.datafiles import load_dataset, save_dataset
from handeye.errors import NotARotationError, SchemaError
from handeye.geometry import ConstraintSet, RigidMotion, orthonormalize
from handeye.simulate import Formulation, synthetic_dataset

from conftest import rodrigues

R0 = rodrigues([1.0, 2.0, 3.0], 0.7)


def _from_motions(side):
    def check(m):
        rotations = {"camera": R0, "hand": R0, side: m}
        ConstraintSet.from_motions(
            rotations["camera"][None], np.zeros((1, 3)), rotations["hand"][None], np.zeros((1, 3))
        )

    return check


def _reduced(m):
    geo._reduced(np.eye(4)[:3], np.hstack([m, [[1.0], [2.0], [3.0]]]))


def _loaded(key):
    def check(m):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ds.yaml"
            save_dataset(synthetic_dataset(3, 0, Formulation.CLASSICAL), path)
            doc = yaml.safe_load(path.read_text(encoding="utf-8"))
            pose = np.vstack([np.hstack([m, [[5.0], [6.0], [7.0]]]), [0.0, 0.0, 0.0, 1.0]])
            doc[key][1] = pose.tolist()
            path.write_text(yaml.safe_dump(doc), encoding="utf-8")
            load_dataset(path)

    return check


# site: (check, tolerance, error type)
SITES = {
    "from_rotation_matrix": (quat.from_rotation_matrix, 1e-6, NotARotationError),
    "RigidMotion": (lambda m: RigidMotion(m, np.zeros(3)), 1e-9, NotARotationError),
    "from_motions-camera": (_from_motions("camera"), 1e-9, NotARotationError),
    "from_motions-hand": (_from_motions("hand"), 1e-9, NotARotationError),
    "orthonormalize": (orthonormalize, 0.5, NotARotationError),
    "_reduced": (_reduced, 0.1, NotARotationError),
    "load_dataset-hand_poses": (_loaded("hand_poses"), 1e-6, SchemaError),
    "load_dataset-camera_extrinsics": (_loaded("camera_extrinsics"), 1e-6, SchemaError),
}


def _stretched(ratio):
    """R0 diag(s, 1, 1): orthonormality residual s^2 - 1 = ratio * tol."""
    return lambda tol: R0 @ np.diag([np.sqrt(1.0 + ratio * tol), 1.0, 1.0])


def _entry(value):
    def row(tol):
        m = R0.copy()
        m[1, 2] = value
        return m

    return row


# row: (matrix of the site's tolerance, accepted)
ROWS = {
    "rotation": (lambda tol: R0, True),
    "0.9-tol": (_stretched(0.9), True),
    "1.1-tol": (_stretched(1.1), False),
    "reflection": (lambda tol: R0 @ np.diag([1.0, 1.0, -1.0]), False),
    "nan": (_entry(np.nan), False),
    "inf": (_entry(np.inf), False),
    "minus-inf": (_entry(-np.inf), False),
    "1e300": (_entry(1e300), False),
}


@pytest.mark.parametrize("row", ROWS)
@pytest.mark.parametrize("site", SITES)
def test_each_rotation_site_accepts_or_raises_its_own_error(site, row):
    check, tol, error = SITES[site]
    build, accepted = ROWS[row]
    m = build(tol)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if accepted:
            check(m)
        else:
            with pytest.raises(error):
                check(m)


@pytest.mark.parametrize("row", [row for row, (_, accepted) in ROWS.items() if not accepted])
@pytest.mark.parametrize("side", ["camera", "hand"])
def test_from_motions_names_the_side_of_every_rejected_rotation(side, row):
    with pytest.raises(NotARotationError, match=f"^{side}_rotation: "):
        _from_motions(side)(ROWS[row][0](1e-9))


def _lu_flags(m, tol):
    """The reference of ``_rotation_check``'s flags: the same residual rule,
    with the determinant's sign from LAPACK's LU (``np.linalg.det``)."""
    with np.errstate(all="ignore"):
        gram = np.swapaxes(m, -1, -2) @ m - np.eye(3)
        residual = np.sqrt(np.add.reduce(gram * gram, axis=(-2, -1)))
        return ~((residual <= tol) & (np.linalg.det(m) > 0.0))


def _check_table(rng):
    """Rotations, reflections, matrices with a NaN, infinite or 1e300
    entry, singular and near-singular matrices, and random near-rotations
    and near-reflections at every tolerance a site uses."""
    rotations = np.stack(
        [rodrigues(rng.normal(size=3), rng.uniform(0.0, np.pi)) for _ in range(40)]
    )
    flip = np.diag([1.0, 1.0, -1.0])
    table = [rotations, rotations @ flip, -rotations]
    for value in (np.nan, np.inf, -np.inf, 1e300, -1e300):
        m = rotations.copy()
        m.reshape(-1, 9)[np.arange(len(m)), rng.integers(0, 9, len(m))] = value
        table.append(m)
    for scale in (0.0, 1e-300, 1e-16, -1e-16, 1e-8, -1e-8):
        table.append(rotations @ np.diag([1.0, 1.0, scale]))
    table.append(np.zeros((1, 3, 3)))
    table.append(np.ones((1, 3, 3)))
    for tol in sorted({tol for _, tol, _ in SITES.values()}):
        # off by 0.1 to 3 times the tolerance, in random directions
        size = tol * np.geomspace(0.1, 3.0, 200)[:, None, None] / 3.0
        noise = size * rng.normal(size=(200, 3, 3))
        for base in (rotations, rotations @ flip):
            table.append(base[rng.integers(0, len(base), 200)] + noise)
    return np.concatenate(table)


def test_the_cofactor_determinant_flags_what_lu_flags(rng):
    table = _check_table(rng)
    for tol in sorted({tol for _, tol, _ in SITES.values()}):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, bad = quat._rotation_check(table, tol)
        reference = _lu_flags(table, tol)
        assert np.array_equal(bad, reference), tol
        assert 0 < np.count_nonzero(~bad) < len(table), tol
