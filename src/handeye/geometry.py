"""Rigid motions, perspective matrices, and constraint extraction.

Poses and motions follow one convention throughout: a transform maps
coordinates *from* the second frame *to* the first, so ``camera_pose``
takes calibration-frame points to camera-frame points and ``hand_pose``
takes hand-frame points to robot-base points.  Translations are in
millimetres.

A single transform is a :class:`RigidMotion` (or a
:class:`PerspectiveMatrix`); every list of them is one array.  Absolute
poses are (n, 4, 4) homogeneous stacks, perspective matrices (n, 3, 4)
stacks, and motions (n, 3, 3) rotations plus (n, 3) translations.

Every solver in this package consumes the same per-motion data,
regardless of whether it was extracted from decomposed camera poses (the
AX = XB route) or from raw 3x4 perspective matrices (the MY = M'YB
route): a :class:`ConstraintSet`, one (n, ...) array per field.
``classical_constraints`` and ``perspective_constraints`` build one set
per dataset in array operations over all motions, and
``ConstraintSet.from_motions`` builds a batch of sets, (J, n, ...), for
the Monte-Carlo harness.  It and the single-transform constructors reject
non-finite entries.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from . import quaternion as quat
from .errors import (
    DegenerateRotationError,
    DegenerateViewError,
    NotARotationError,
    PointAtInfinityError,
    SingularProjectionError,
    TooFewPosesError,
)

# Construction-time tolerance for rotation blocks; noisy external input is
# orthonormalized before it gets here.
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

_EYE3 = np.eye(3)


class Formulation(str, Enum):
    CLASSICAL = "classical"
    PERSPECTIVE = "perspective"


def _first(values, bad):
    """The value of the first flagged entry, in C order."""
    return np.asarray(values)[np.asarray(bad)].flat[0]


def _bottom_row_deviation(m: np.ndarray) -> np.ndarray:
    """Largest deviation of the bottom row of each 4x4 matrix in ``m``
    from (0, 0, 0, 1)."""
    return np.max(np.abs(m[..., 3, :] - _BOTTOM_ROW), axis=-1)


def _check_rotation(m: np.ndarray, what: str, batched: bool = False) -> np.ndarray:
    """A 3x3 rotation, or with ``batched`` a (..., 3, 3) stack of them."""
    m = np.asarray(m, dtype=float)
    if (m.shape[-2:] if batched else m.shape) != (3, 3):
        raise NotARotationError(f"{what}: expected 3x3, got {m.shape}")
    gram = np.swapaxes(m, -1, -2) @ m - _EYE3
    residual = np.sqrt(np.add.reduce(gram * gram, axis=(-2, -1)))
    if not (residual <= _ROTATION_TOL).all():  # NaN fails this too
        if not np.isfinite(m).all():
            raise NotARotationError(f"{what}: non-finite entry")
        bad = residual > _ROTATION_TOL
        raise NotARotationError(f"{what}: orthonormality residual {_first(residual, bad):.3e}")
    det = np.linalg.det(m)
    bad = abs(det - 1.0) > _ROTATION_TOL
    if bad.any():
        raise NotARotationError(f"{what}: determinant {_first(det, bad):.12f}")
    return m


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
        object.__setattr__(
            self, "rotation", _check_rotation(self.rotation, "RigidMotion.rotation")
        )
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

    def apply(self, points) -> np.ndarray:
        """Transform 3-D point(s), shape (..., 3)."""
        return np.asarray(points, dtype=float) @ self.rotation.T + self.translation


@dataclass(frozen=True, eq=False)
class PerspectiveMatrix:
    """3x4 camera matrix split as [linear | offset].

    The left 3x3 block of a pin-hole matrix is invertible (product of an
    upper-triangular intrinsic block and a rotation); construction rejects
    matrices whose block determinant is below 1e-12.
    """

    linear: np.ndarray  # 3x3 left block
    offset: np.ndarray  # fourth column

    def __post_init__(self):
        n = np.asarray(self.linear, dtype=float)
        v = np.asarray(self.offset, dtype=float)
        if n.shape != (3, 3) or v.shape != (3,):
            raise ValueError(f"bad perspective matrix blocks: {n.shape}, {v.shape}")
        if abs(np.linalg.det(n)) <= MIN_BLOCK_DETERMINANT:
            raise SingularProjectionError(f"left 3x3 block determinant {np.linalg.det(n):.3e}")
        object.__setattr__(self, "linear", n)
        object.__setattr__(self, "offset", v)

    @classmethod
    def from_matrix(cls, m) -> "PerspectiveMatrix":
        m = np.asarray(m, dtype=float)
        if m.shape != (3, 4):
            raise ValueError(f"expected 3x4 matrix, got {m.shape}")
        return cls(m[:, :3], m[:, 3])

    @classmethod
    def from_pinhole(cls, intrinsics: "Intrinsics", pose: RigidMotion) -> "PerspectiveMatrix":
        """Compose an intrinsic block with a camera pose: M = C @ [R | t]."""
        return cls.from_matrix(intrinsics.matrices(pose.matrix))

    @property
    def matrix(self) -> np.ndarray:
        return np.hstack([self.linear, self.offset[:, None]])


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
        try:
            axes = rotation_axis(np.stack([camera_rotation, hand_rotation], axis=-3))
        except DegenerateRotationError as err:
            raise DegenerateRotationError(str(err), index=err.index // 2) from None
        return cls(
            _check_rotation(camera_rotation, "camera_rotation", batched=True),
            _check_rotation(hand_rotation, "hand_rotation", batched=True),
            axes[..., 0, :],
            axes[..., 1, :],
            _check_vector(camera_translation, "camera_translation", batched=True),
            _check_vector(hand_translation, "hand_translation", batched=True),
        )


@dataclass(frozen=True, eq=False)
class Line3:
    """3-D line: a point on it (mm) and a unit direction."""

    point: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.point, dtype=float)
        d = np.asarray(self.direction, dtype=float)
        if p.shape != (3,) or d.shape != (3,):
            raise ValueError("point and direction must be 3-vectors")
        if abs(np.linalg.norm(d) - 1.0) > 1e-12:
            raise ValueError("direction must be unit")
        object.__setattr__(self, "point", p)
        object.__setattr__(self, "direction", d)

    def at(self, s) -> np.ndarray:
        return self.point + np.multiply.outer(np.asarray(s, dtype=float), self.direction)


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
    """``poses`` as an (n, rows, 4) float array; ValueError otherwise."""
    m = np.asarray(poses, dtype=float)
    if m.ndim != 3 or m.shape[1:] != (rows, 4):
        raise ValueError(f"{what} must be an (n, {rows}, 4) stack, got shape {m.shape}")
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
    m'm - I) or with non-positive determinant; those are wrong data, not
    noise.
    """
    m = np.asarray(m, dtype=float)
    if m.shape[-2:] != (3, 3):
        raise NotARotationError(f"expected 3x3 matrix, got {m.shape}")
    residual = np.linalg.norm(np.swapaxes(m, -1, -2) @ m - np.eye(3), axis=(-2, -1))
    bad = residual > _MAX_PROJECTION_RESIDUAL
    if bad.any():
        raise NotARotationError(
            f"orthonormality residual {_first(residual, bad):.3e} > {_MAX_PROJECTION_RESIDUAL}"
        )
    if (np.linalg.det(m) <= 0.0).any():
        raise NotARotationError("determinant is not positive")
    u, _, vt = np.linalg.svd(m)
    r = u @ vt
    reflected = np.linalg.det(r) < 0.0
    if reflected.any():
        r = np.where(reflected[..., None, None], u @ np.diag([1.0, 1.0, -1.0]) @ vt, r)
    return r


def rotation_axis(m) -> np.ndarray:
    """Unit rotation axis (eigenvector for the unit eigenvalue) of a
    rotation matrix, or of each in a (..., 3, 3) stack.

    The sign follows the canonical-sign quaternion of the matrix.  Raises
    DegenerateRotationError below ``MIN_ROTATION_ANGLE``: a near-identity
    motion carries no usable axis and must be rejected rather than
    guessed.  For a stack the error carries the flat index of the first
    such matrix.
    """
    axis, angle = quat.axis_angle(quat.from_rotation_matrix(m))
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
    polar-projected onto the rotation group, and rejected if its
    orthonormality residual exceeds 0.1 before projection.
    """
    n1, v1, n2, v2 = m1[:, :3], m1[:, 3], m2[..., :3], m2[..., 3]
    if abs(np.linalg.det(n1)) <= MIN_BLOCK_DETERMINANT:
        raise SingularProjectionError("first perspective matrix has a singular 3x3 block")
    k = np.linalg.solve(n1, n2)
    if (np.linalg.norm(np.swapaxes(k, -1, -2) @ k - np.eye(3), axis=(-2, -1)) > 0.1).any():
        raise NotARotationError("reduced rotation block is too far from orthonormal")
    t = np.linalg.solve(n1, (v2 - v1)[..., None])[..., 0]
    return orthonormalize(k), t


# ---------------------------------------------------------------------------
# pin-hole projection and its inverse ray

def project_point(m: PerspectiveMatrix, point) -> tuple[float, float]:
    """Pixel coordinates (u, v) of a 3-D point in the calibration frame."""
    p = np.asarray(point, dtype=float)
    num = m.linear @ p + m.offset
    if abs(num[2]) <= 1e-12:
        raise PointAtInfinityError(f"projective depth {num[2]:.3e} vanishes")
    return float(num[0] / num[2]), float(num[1] / num[2])


def line_of_sight(m: PerspectiveMatrix, u: float, v: float) -> Line3:
    """Line of sight through image point (u, v), in the calibration frame.

    Intersects the two planes a perspective matrix associates with an image
    point.  The returned point is the one closest to the origin and the
    direction sign makes the first nonzero component positive.
    """
    full = m.matrix
    rows = np.array([full[0] - u * full[2], full[1] - v * full[2]])
    normals = rows[:, :3]
    rhs = -rows[:, 3]
    direction = np.cross(normals[0], normals[1])
    scale = np.linalg.norm(normals[0]) * np.linalg.norm(normals[1])
    if np.linalg.norm(direction) <= 1e-12 * max(scale, 1e-300):
        raise DegenerateViewError("image-point planes are parallel")
    direction = direction / np.linalg.norm(direction)
    for c in direction:
        if c != 0.0:
            if c < 0.0:
                direction = -direction
            break
    point, *_ = np.linalg.lstsq(normals, rhs, rcond=None)
    point = point - (point @ direction) * direction
    return Line3(point, direction)


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
    scale = np.linalg.norm(block[:, 2], axis=-1) * np.sign(np.linalg.det(block))
    # A singular block keeps its scale, so _reduced still rejects it.
    matrices = matrices / np.where(scale == 0.0, 1.0, scale)[:, None, None]
    camera = _reduced(matrices[0], matrices[1:])
    rh, th = hand_poses[:, :3, :3], hand_poses[:, :3, 3]
    hand = _compose(*_invert(rh[1:], th[1:]), rh[0], th[0])
    try:
        return ConstraintSet.from_motions(*camera, *hand)
    except DegenerateRotationError as err:
        i = err.index
        raise DegenerateRotationError(f"positions 1->{i + 2}: {err}", index=i) from err
