"""Rigid motions, perspective matrices, and constraint extraction.

Poses and motions follow one convention throughout: a transform maps
coordinates *from* the second frame *to* the first, so ``camera_pose``
takes calibration-frame points to camera-frame points and ``hand_pose``
takes hand-frame points to robot-base points.  Translations are in
millimetres.

A single transform is a :class:`RigidMotion`; every list of transforms
is one array.  Absolute poses are (n, 4, 4) homogeneous stacks,
perspective matrices (n, 3, 4) stacks, and motions (n, 3, 3) rotations
plus (n, 3) translations.

Every solver in this package consumes the same per-motion data,
regardless of whether it was extracted from decomposed camera poses (the
AX = XB route) or from raw 3x4 perspective matrices (the MY = M'YB
route): a :class:`ConstraintSet`, one (n, ...) array per field.
``classical_constraints`` and ``perspective_constraints`` build one set
per dataset in array operations over all motions, and
``ConstraintSet.from_motions`` builds a batch of sets, (J, n, ...), for
the Monte-Carlo harness.  It and the single-transform constructors reject
non-finite entries, and both builders check their input stacks where they
enter: finite entries, and each pose's bottom row (0, 0, 0, 1).  Rotations
are checked by ``quaternion._rotation_check``, within 1e-9 for a motion,
0.1 for a reduced perspective block and 0.5 for ``orthonormalize``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from . import quaternion as quat
from .errors import (
    DegenerateRotationError,
    NotARotationError,
    SingularProjectionError,
    TooFewPosesError,
)

# Construction-time tolerance for rotation blocks; noisy external input is
# orthonormalized before it gets here.  A residual within it bounds
# |det - 1| by 0.87 of it, so a positive determinant is all that is left.
_ROTATION_TOL = 1e-9

# Rotations with a smaller angle have no usable axis.
MIN_ROTATION_ANGLE = 1e-6

# A perspective matrix's left 3x3 block is singular at or below this |det|.
MIN_BLOCK_DETERMINANT = 1e-12

# Largest deviation of a 4x4 pose's bottom row from (0, 0, 0, 1).
MAX_BOTTOM_ROW_DEVIATION = 1e-9
_BOTTOM_ROW = np.array([0.0, 0.0, 0.0, 1.0])

# Farthest from orthonormal a matrix ``orthonormalize`` projects; farther
# is wrong data, not noise.
_MAX_PROJECTION_RESIDUAL = 0.5


class Formulation(str, Enum):
    CLASSICAL = "classical"
    PERSPECTIVE = "perspective"


def _bottom_row_deviation(m: np.ndarray) -> np.ndarray:
    """Largest deviation of the bottom row of each 4x4 matrix in ``m``
    from (0, 0, 0, 1)."""
    return np.max(np.abs(m[..., 3, :] - _BOTTOM_ROW), axis=-1)


def _check_vector(v, what: str, batched: bool = False) -> np.ndarray:
    """A finite 3-vector, or a (..., 3) stack of them."""
    v = np.asarray(v, dtype=float)
    if (v.shape[-1:] if batched else v.shape) != (3,):
        raise ValueError(f"{what} must be a 3-vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"{what} must be finite")
    return v


@dataclass(frozen=True, eq=False)
class RigidMotion:
    """Rotation (3x3) plus translation (3-vector, mm)."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rotation = np.asarray(self.rotation, dtype=float)
        if rotation.shape != (3, 3):
            raise NotARotationError(f"RigidMotion.rotation: expected 3x3, got {rotation.shape}")
        quat._require_rotations(rotation, _ROTATION_TOL, ("RigidMotion.rotation",))
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "translation", _check_vector(self.translation, "translation"))

    @classmethod
    def identity(cls) -> "RigidMotion":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_matrix(cls, m) -> "RigidMotion":
        """Build from a 4x4 homogeneous matrix; bottom row must be (0,0,0,1)."""
        m = np.asarray(m, dtype=float)
        if m.shape != (4, 4):
            raise ValueError(f"expected 4x4 matrix, got {m.shape}")
        if _bottom_row_deviation(m) > MAX_BOTTOM_ROW_DEVIATION:
            raise ValueError(f"bottom row {m[3].tolist()} is not (0, 0, 0, 1)")
        return cls(m[:3, :3], m[:3, 3])

    @property
    def matrix(self) -> np.ndarray:
        return _homogeneous(self.rotation, self.translation)


@dataclass(frozen=True)
class Intrinsics:
    """Pin-hole parameters: pixel-scaled focal lengths and principal point."""

    focal_u: float
    focal_v: float
    center_u: float
    center_v: float

    def __post_init__(self):
        if self.focal_u == 0.0 or self.focal_v == 0.0:
            raise ValueError("focal lengths must be nonzero")

    @property
    def block(self) -> np.ndarray:
        return np.array(
            [
                [self.focal_u, 0.0, self.center_u],
                [0.0, self.focal_v, self.center_v],
                [0.0, 0.0, 1.0],
            ]
        )

    def matrices(self, poses) -> np.ndarray:
        """Perspective matrices C [R | t] of a pose or a (..., 4, 4) stack,
        shape (..., 3, 4)."""
        poses = np.asarray(poses, dtype=float)
        c = self.block
        return np.concatenate([c @ poses[..., :3, :3], c @ poses[..., :3, 3:]], axis=-1)


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """Everything n device motions contribute to the calibration solve,
    one (n, ...) array per field, in motion order.

    ``camera_rotation`` is the camera-side rotation (either the relative
    camera rotation or the reduced perspective block), ``camera_axis`` /
    ``hand_axis`` are its rotation axis and the hand motion's axis, and
    ``camera_translation`` / ``hand_translation`` the two translations.
    The full hand rotation is kept as well: the quadratic form of the
    simultaneous objective needs it.  ``from_motions`` checks every
    entry; the plain constructor takes the arrays as they are.

    A batch of J independent problems with the same motion count stacks
    one more leading axis, (J, n, ...); ``len`` is the motion count n
    either way.
    """

    camera_rotation: np.ndarray     # (n, 3, 3)
    hand_rotation: np.ndarray       # (n, 3, 3)
    camera_axis: np.ndarray         # (n, 3), unit
    hand_axis: np.ndarray           # (n, 3), unit
    camera_translation: np.ndarray  # (n, 3), mm
    hand_translation: np.ndarray    # (n, 3), mm

    def __len__(self) -> int:
        return self.camera_rotation.shape[-3]

    @property
    def arrays(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, f.name) for f in fields(self))

    @classmethod
    def from_motions(
        cls, camera_rotation, camera_translation, hand_rotation, hand_translation
    ) -> "ConstraintSet":
        """Constraints of stacks of motions: rotations (..., 3, 3) and
        translations (..., 3), every leading index one (camera motion,
        hand motion) pair.  Checks every entry and raises the first
        failure; a DegenerateRotationError carries the flat index of its
        pair."""
        pair = quat._require_rotations(
            np.stack([camera_rotation, hand_rotation], axis=-3),
            _ROTATION_TOL,
            ("camera_rotation", "hand_rotation"),
        )
        try:
            axes = _axes_of(quat._quaternion_of(pair))
        except DegenerateRotationError as err:
            raise DegenerateRotationError(str(err), index=err.index // 2) from None
        return cls(
            np.asarray(camera_rotation, dtype=float),
            np.asarray(hand_rotation, dtype=float),
            axes[..., 0, :],
            axes[..., 1, :],
            _check_vector(camera_translation, "camera_translation", batched=True),
            _check_vector(hand_translation, "hand_translation", batched=True),
        )


# ---------------------------------------------------------------------------
# rigid-motion arithmetic

def _compose(ra, ta, rb, tb) -> tuple[np.ndarray, np.ndarray]:
    """(rotation, translation) of b then a, over leading axes."""
    return ra @ rb, (ra @ tb[..., None])[..., 0] + ta


def _invert(r, t) -> tuple[np.ndarray, np.ndarray]:
    rt = np.swapaxes(r, -1, -2)
    return rt, (-rt @ t[..., None])[..., 0]


def _homogeneous(r, t) -> np.ndarray:
    """(..., 4, 4) matrices of rotations (..., 3, 3) and translations
    (..., 3), bottom row exactly (0, 0, 0, 1)."""
    m = np.zeros(np.shape(r)[:-2] + (4, 4))
    m[..., :3, :3] = r
    m[..., :3, 3] = t
    m[..., 3, 3] = 1.0
    return m


def _consecutive_motions(poses) -> tuple[np.ndarray, np.ndarray]:
    """Motions between consecutive poses of an (n, 4, 4) camera pose
    stack: pose i+1 o pose i^-1."""
    r, t = poses[:, :3, :3], poses[:, :3, 3]
    return _compose(r[1:], t[1:], *_invert(r[:-1], t[:-1]))


def _stack_of(poses, rows: int, what: str) -> np.ndarray:
    """``poses`` as an (n, rows, 4) float array of finite entries whose
    4x4 poses have the bottom row (0, 0, 0, 1); ValueError otherwise."""
    m = np.asarray(poses, dtype=float)
    if m.ndim != 3 or m.shape[1:] != (rows, 4):
        raise ValueError(f"{what} must be an (n, {rows}, 4) stack, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{what} must be finite")
    if rows == 4:
        bad = _bottom_row_deviation(m) > MAX_BOTTOM_ROW_DEVIATION
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"{what}[{i}]: bottom row {m[i, 3].tolist()} is not (0, 0, 0, 1)")
    return m


def compose(a: RigidMotion, b: RigidMotion) -> RigidMotion:
    """Motion applying b first, then a."""
    return RigidMotion(*_compose(a.rotation, a.translation, b.rotation, b.translation))


def invert(a: RigidMotion) -> RigidMotion:
    return RigidMotion(*_invert(a.rotation, a.translation))


def orthonormalize(m) -> np.ndarray:
    """Nearest rotation in Frobenius norm (polar projection), of a 3x3
    matrix or of each in a (..., 3, 3) stack.

    Rejects input farther than 0.5 from orthonormal (Frobenius residual of
    m'm - I), with non-positive determinant or with non-finite entries;
    those are wrong data, not noise.
    """
    m = quat._require_rotations(m, _MAX_PROJECTION_RESIDUAL)
    # Every singular value is at least sqrt(0.5) and det m > 0, so
    # det(U V') = sign(det m) = +1: the projection is never a reflection.
    u, _, vt = np.linalg.svd(m)
    return u @ vt


def rotation_axis(m) -> np.ndarray:
    """Unit rotation axis (eigenvector for the unit eigenvalue) of a
    rotation matrix, or of each in a (..., 3, 3) stack.

    The sign follows the canonical-sign quaternion of the matrix.  Raises
    DegenerateRotationError below ``MIN_ROTATION_ANGLE``: a near-identity
    motion carries no usable axis and must be rejected rather than
    guessed.  For a stack the error carries the flat index of the first
    such matrix.
    """
    return _axes_of(quat.from_rotation_matrix(m))


def _axes_of(q: np.ndarray) -> np.ndarray:
    """``rotation_axis`` of the rotations of canonical unit quaternions."""
    axis, angle = quat.axis_angle(q)
    bad = np.reshape(angle < MIN_ROTATION_ANGLE, -1)
    if bad.any():
        first = int(np.argmax(bad))
        raise DegenerateRotationError(
            f"rotation angle {np.reshape(angle, -1)[first]:.3e} rad "
            f"below {MIN_ROTATION_ANGLE:.1e}",
            index=first if np.ndim(angle) else None,
        )
    return axis


def rotation_angle(m) -> np.ndarray:
    """Rotation angle in [0, pi] of a rotation matrix (or of each in a
    (..., 3, 3) stack)."""
    c = 0.5 * (np.trace(np.asarray(m, dtype=float), axis1=-2, axis2=-1) - 1.0)
    return np.arccos(np.clip(c, -1.0, 1.0))[()]


def _reduced(m1, m2) -> tuple[np.ndarray, np.ndarray]:
    """Relative motion two perspective matrices m1 = [N1 | n1] and
    m2 = [N2 | n2] encode, without decomposing either into intrinsic and
    extrinsic parts; m2 may be a (..., 3, 4) stack.

    Returns the rigid motion (N1^-1 N2, N1^-1 (n2 - n1)).  For matrices that
    share the intrinsic block the rotation part is exact; otherwise it is
    polar-projected onto the rotation group, and rejected if it is not a
    rotation within an orthonormality residual of 0.1 before projection.
    A non-finite first block counts as singular.
    """
    n1, v1, n2, v2 = m1[:, :3], m1[:, 3], m2[..., :3], m2[..., 3]
    with np.errstate(all="ignore"):
        if not abs(np.linalg.det(n1)) > MIN_BLOCK_DETERMINANT:
            raise SingularProjectionError("first perspective matrix has a singular 3x3 block")
        k = np.linalg.solve(n1, n2)
        t = np.linalg.solve(n1, (v2 - v1)[..., None])[..., 0]
    if quat._rotation_check(k, 0.1)[1].any():
        raise NotARotationError("reduced rotation block is too far from orthonormal")
    return orthonormalize(k), t


# ---------------------------------------------------------------------------
# constraint extraction

def classical_constraints(camera_poses, hand_poses) -> ConstraintSet:
    """Constraints from consecutive position pairs of absolute poses.

    Args:
        camera_poses: (n, 4, 4) calibration->camera transforms, one per
            position.
        hand_poses: (n, 4, 4) hand->robot-base transforms, same length.

    Returns:
        n - 1 constraints for n positions, in position order.
    """
    camera_poses = _stack_of(camera_poses, 4, "camera_poses")
    hand_poses = _stack_of(hand_poses, 4, "hand_poses")
    if len(camera_poses) != len(hand_poses):
        raise ValueError(
            f"pose lists differ in length: {len(camera_poses)} != {len(hand_poses)}"
        )
    if len(camera_poses) < 2:
        raise TooFewPosesError(f"need at least 2 positions, got {len(camera_poses)}")
    # a motion that overflows is not finite, and from_motions rejects it
    with np.errstate(all="ignore"):
        camera = _consecutive_motions(camera_poses)
        # hand motion pose2^-1 o pose1
        rh, th = hand_poses[:, :3, :3], hand_poses[:, :3, 3]
        hand = _compose(*_invert(rh[1:], th[1:]), rh[:-1], th[:-1])
    try:
        return ConstraintSet.from_motions(*camera, *hand)
    except DegenerateRotationError as err:
        i = err.index
        raise DegenerateRotationError(f"motion {i}->{i + 1}: {err}", index=i) from err


def perspective_constraints(matrices, hand_poses) -> ConstraintSet:
    """Constraints pairing every position against position 1.

    ``matrices`` is the (n, 3, 4) stack of raw perspective matrices and
    ``hand_poses`` the (n, 4, 4) stack of hand->robot-base transforms.  The
    camera side of each constraint is the reduced motion of two raw
    matrices; no intrinsic/extrinsic decomposition happens.

    A perspective matrix is defined only up to a nonzero scale, so each
    one is first divided by ±|n3|, the norm of the third row of its left
    3x3 block N, with the sign that makes det N positive (the
    normalization of Faugeras & Toscani, 1986).  For M = C [R | t] with
    C's last row (0, 0, 1) that scale is 1; any other scale of any matrix
    gives the same constraints.
    """
    matrices = _stack_of(matrices, 3, "matrices")
    hand_poses = _stack_of(hand_poses, 4, "hand_poses")
    if len(matrices) != len(hand_poses):
        raise ValueError(
            f"input lists differ in length: {len(matrices)} != {len(hand_poses)}"
        )
    if len(matrices) < 2:
        raise TooFewPosesError(f"need at least 2 positions, got {len(matrices)}")
    block = matrices[:, :, :3]
    # A scale, matrix or motion that overflows is not finite, and _reduced
    # or from_motions rejects it.
    with np.errstate(all="ignore"):
        scale = np.linalg.norm(block[:, 2], axis=-1) * np.sign(np.linalg.det(block))
        # A singular block keeps its scale, so _reduced still rejects it.
        matrices = matrices / np.where(scale == 0.0, 1.0, scale)[:, None, None]
        rh, th = hand_poses[:, :3, :3], hand_poses[:, :3, 3]
        hand = _compose(*_invert(rh[1:], th[1:]), rh[0], th[0])
    camera = _reduced(matrices[0], matrices[1:])
    try:
        return ConstraintSet.from_motions(*camera, *hand)
    except DegenerateRotationError as err:
        i = err.index
        raise DegenerateRotationError(f"positions 1->{i + 2}: {err}", index=i) from err
