"""Rigid motions, perspective matrices, and constraint extraction.

Poses and motions follow one convention throughout: a transform maps
coordinates *from* the second frame *to* the first, so ``camera_pose``
takes calibration-frame points to camera-frame points and ``hand_pose``
takes hand-frame points to robot-base points.  Translations are in
millimetres.

Every solver in this package consumes the same per-motion data,
regardless of whether it was extracted from decomposed camera poses (the
AX = XB route) or from raw 3x4 perspective matrices (the MY = M'YB
route): a :class:`ConstraintSet`, the fields of n :class:`MotionConstraint`
records stacked as arrays.  ``classical_constraints`` and
``perspective_constraints`` build one set per dataset in array operations
over all motions, and ``ConstraintSet.from_motions`` builds a batch of
sets, (J, n, ...), for the Monte-Carlo harness; iterating a set yields
its records.  Constructors reject non-finite entries.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

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

_EYE3 = np.eye(3)


def _first(values, bad):
    """The value of the first flagged entry, in C order."""
    return np.asarray(values)[np.asarray(bad)].flat[0]


def _check_rotation(
    m: np.ndarray, what: str, tol: float = _ROTATION_TOL, batched: bool = False
) -> np.ndarray:
    """A 3x3 rotation, or with ``batched`` a (..., 3, 3) stack of them."""
    m = np.asarray(m, dtype=float)
    if (m.shape[-2:] if batched else m.shape) != (3, 3):
        raise NotARotationError(f"{what}: expected 3x3, got {m.shape}")
    gram = np.swapaxes(m, -1, -2) @ m - _EYE3
    residual = np.sqrt(np.add.reduce(gram * gram, axis=(-2, -1)))
    if not (residual <= tol).all():  # NaN fails this too
        if not np.isfinite(m).all():
            raise NotARotationError(f"{what}: non-finite entry")
        bad = residual > tol
        raise NotARotationError(f"{what}: orthonormality residual {_first(residual, bad):.3e}")
    det = np.linalg.det(m)
    bad = abs(det - 1.0) > tol
    if bad.any():
        raise NotARotationError(f"{what}: determinant {_first(det, bad):.12f}")
    return m


def _check_vector(v, what: str, unit: bool = False, batched: bool = False) -> np.ndarray:
    """A finite 3-vector (unit with ``unit``), or a (..., 3) stack of them."""
    v = np.asarray(v, dtype=float)
    if (v.shape[-1:] if batched else v.shape) != (3,):
        raise ValueError(f"{what} must be a 3-vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"{what} must be finite")
    if unit and (abs(np.linalg.norm(v, axis=-1) - 1.0) > 1e-9).any():
        raise ValueError(f"{what} must be a unit 3-vector")
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
    def from_matrix(cls, m, tol: float = 1e-9) -> "RigidMotion":
        """Build from a 4x4 homogeneous matrix; bottom row must be (0,0,0,1)."""
        m = np.asarray(m, dtype=float)
        if m.shape != (4, 4):
            raise ValueError(f"expected 4x4 matrix, got {m.shape}")
        if np.max(np.abs(m[3] - np.array([0.0, 0.0, 0.0, 1.0]))) > tol:
            raise ValueError(f"bottom row {m[3].tolist()} is not (0, 0, 0, 1)")
        return cls(m[:3, :3], m[:3, 3])

    @property
    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

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
        if abs(np.linalg.det(n)) <= 1e-12:
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
        c = intrinsics.block
        return cls(c @ pose.rotation, c @ pose.translation)

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


@dataclass(frozen=True, eq=False)
class MotionConstraint:
    """Everything one device motion contributes to the calibration solve.

    ``camera_rotation`` is the camera-side rotation (either the relative
    camera rotation or the reduced perspective block), ``camera_axis`` /
    ``hand_axis`` are its rotation axis and the hand motion's axis, and
    ``camera_translation`` / ``hand_translation`` the two translations.
    The full hand rotation is kept as well: the quadratic form of the
    simultaneous objective needs it.
    """

    camera_rotation: np.ndarray   # 3x3
    hand_rotation: np.ndarray     # 3x3
    camera_axis: np.ndarray       # unit 3-vector
    hand_axis: np.ndarray         # unit 3-vector
    camera_translation: np.ndarray  # mm
    hand_translation: np.ndarray    # mm

    def __post_init__(self):
        for f, value in zip(fields(self), _checked_fields(self)):
            object.__setattr__(self, f.name, value)


def _checked_fields(record, batched: bool = False) -> tuple[np.ndarray, ...]:
    """The six constraint fields of ``record`` as validated float arrays."""
    out = [
        _check_rotation(record.camera_rotation, "camera_rotation", batched=batched),
        _check_rotation(record.hand_rotation, "hand_rotation", batched=batched),
    ]
    for name in ("camera_axis", "hand_axis"):
        out.append(_check_vector(getattr(record, name), name, unit=True, batched=batched))
    for name in ("camera_translation", "hand_translation"):
        out.append(_check_vector(getattr(record, name), name, batched=batched))
    return tuple(out)


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """Constraint records stacked once, in motion order: each field is the
    (n, ...) stack of the :class:`MotionConstraint` field of that name.

    A batch of J independent problems with the same motion count stacks
    one more leading axis, (J, n, ...); ``len`` is the motion count n
    either way.
    """

    camera_rotation: np.ndarray     # (n, 3, 3)
    hand_rotation: np.ndarray       # (n, 3, 3)
    camera_axis: np.ndarray         # (n, 3)
    hand_axis: np.ndarray           # (n, 3)
    camera_translation: np.ndarray  # (n, 3)
    hand_translation: np.ndarray    # (n, 3)

    def __len__(self) -> int:
        return self.camera_rotation.shape[-3]

    @property
    def arrays(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, f.name) for f in fields(self))

    @classmethod
    def of(cls, constraints) -> "ConstraintSet":
        """A set unchanged; a sequence of records stacked field by field."""
        if isinstance(constraints, cls):
            return constraints
        if not constraints:
            rotations, vectors = np.empty((0, 3, 3)), np.empty((0, 3))
            return cls(rotations, rotations, vectors, vectors, vectors, vectors)
        return cls(
            *(np.stack([getattr(c, f.name) for c in constraints]) for f in fields(cls))
        )

    @classmethod
    def from_motions(
        cls, camera_rotation, camera_translation, hand_rotation, hand_translation
    ) -> "ConstraintSet":
        """Constraint records of stacks of motions: rotations (..., 3, 3)
        and translations (..., 3), every leading index one (camera motion,
        hand motion) pair.  Runs the record's checks on every entry and
        raises the first failure; a DegenerateRotationError carries the
        flat index of its pair."""
        try:
            axes = rotation_axis(np.stack([camera_rotation, hand_rotation], axis=-3))
        except DegenerateRotationError as err:
            raise DegenerateRotationError(str(err), index=err.index // 2) from None
        cs = cls(
            camera_rotation, hand_rotation, axes[..., 0, :], axes[..., 1, :],
            camera_translation, hand_translation,
        )
        return cls(*_checked_fields(cs, batched=True))

    def __iter__(self):
        """The :class:`MotionConstraint` records of a set, in motion order."""
        for values in zip(*self.arrays):
            yield MotionConstraint(*values)


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


def compose(a: RigidMotion, b: RigidMotion) -> RigidMotion:
    """Motion applying b first, then a."""
    return RigidMotion(*_compose(a.rotation, a.translation, b.rotation, b.translation))


def invert(a: RigidMotion) -> RigidMotion:
    return RigidMotion(*_invert(a.rotation, a.translation))


def camera_motion(pose1: RigidMotion, pose2: RigidMotion) -> RigidMotion:
    """Camera motion between two absolute camera poses (pose2 o pose1^-1)."""
    return compose(pose2, invert(pose1))


def hand_motion(pose1: RigidMotion, pose2: RigidMotion) -> RigidMotion:
    """Hand motion between two hand->base poses (pose2^-1 o pose1)."""
    return compose(invert(pose2), pose1)


def orthonormalize(m, max_residual: float = 0.5) -> np.ndarray:
    """Nearest rotation in Frobenius norm (polar projection), of a 3x3
    matrix or of each in a (..., 3, 3) stack.

    Rejects input farther than ``max_residual`` from orthonormal or with
    non-positive determinant; those are wrong data, not noise.
    """
    m = np.asarray(m, dtype=float)
    if m.shape[-2:] != (3, 3):
        raise NotARotationError(f"expected 3x3 matrix, got {m.shape}")
    residual = np.linalg.norm(np.swapaxes(m, -1, -2) @ m - np.eye(3), axis=(-2, -1))
    bad = residual > max_residual
    if bad.any():
        raise NotARotationError(
            f"orthonormality residual {_first(residual, bad):.3e} > {max_residual}"
        )
    if (np.linalg.det(m) <= 0.0).any():
        raise NotARotationError("determinant is not positive")
    u, _, vt = np.linalg.svd(m)
    r = u @ vt
    reflected = np.linalg.det(r) < 0.0
    if reflected.any():
        r = np.where(reflected[..., None, None], u @ np.diag([1.0, 1.0, -1.0]) @ vt, r)
    return r


def rotation_axis(m, min_angle: float = MIN_ROTATION_ANGLE) -> np.ndarray:
    """Unit rotation axis (eigenvector for the unit eigenvalue) of a
    rotation matrix, or of each in a (..., 3, 3) stack.

    The sign follows the canonical-sign quaternion of the matrix.  Raises
    DegenerateRotationError below ``min_angle``: a near-identity motion
    carries no usable axis and must be rejected rather than guessed.  For
    a stack the error carries the flat index of the first such matrix.
    """
    axis, angle = quat.axis_angle(quat.from_rotation_matrix(m))
    bad = np.reshape(angle < min_angle, -1)
    if bad.any():
        first = int(np.argmax(bad))
        raise DegenerateRotationError(
            f"rotation angle {np.reshape(angle, -1)[first]:.3e} rad below {min_angle:.1e}",
            index=first if np.ndim(angle) else None,
        )
    return axis


def rotation_angle(m) -> np.ndarray:
    """Rotation angle in [0, pi] of a rotation matrix (or of each in a
    (..., 3, 3) stack)."""
    c = 0.5 * (np.trace(np.asarray(m, dtype=float), axis1=-2, axis2=-1) - 1.0)
    return np.arccos(np.clip(c, -1.0, 1.0))[()]


def _reduced(n1, v1, n2, v2) -> tuple[np.ndarray, np.ndarray]:
    """(rotation, translation) that blocks (n1, v1) and (n2, v2) encode;
    n2 and v2 may stack several matrices."""
    if abs(np.linalg.det(n1)) <= 1e-12:
        raise SingularProjectionError("first perspective matrix has a singular 3x3 block")
    k = np.linalg.solve(n1, n2)
    if (np.linalg.norm(np.swapaxes(k, -1, -2) @ k - np.eye(3), axis=(-2, -1)) > 0.1).any():
        raise NotARotationError("reduced rotation block is too far from orthonormal")
    t = np.linalg.solve(n1, (v2 - v1)[..., None])[..., 0]
    return orthonormalize(k), t


def reduced_motion(m1: PerspectiveMatrix, m2: PerspectiveMatrix) -> RigidMotion:
    """Relative motion two perspective matrices encode, without decomposing
    either into intrinsic and extrinsic parts.

    Returns the rigid motion (N1^-1 N2, N1^-1 (n2 - n1)).  For matrices that
    share the intrinsic block the rotation part is exact; otherwise it is
    polar-projected onto the rotation group, and rejected if its
    orthonormality residual exceeds 0.1 before projection.
    """
    return RigidMotion(*_reduced(m1.linear, m1.offset, m2.linear, m2.offset))


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

def motion_constraint(camera: RigidMotion, hand: RigidMotion) -> MotionConstraint:
    """Constraint record of one (camera motion, hand motion) pair."""
    (record,) = ConstraintSet.from_motions(
        camera.rotation[None], camera.translation[None], hand.rotation[None], hand.translation[None]
    )
    return record


def _stacked(motions) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.stack([m.rotation for m in motions]),
        np.stack([m.translation for m in motions]),
    )


def classical_constraints(
    camera_poses: list[RigidMotion], hand_poses: list[RigidMotion]
) -> ConstraintSet:
    """Constraints from consecutive position pairs of absolute poses.

    Args:
        camera_poses: calibration->camera transforms, one per position.
        hand_poses: hand->robot-base transforms, same length.

    Returns:
        n - 1 constraints for n positions, in position order.
    """
    if len(camera_poses) != len(hand_poses):
        raise ValueError(
            f"pose lists differ in length: {len(camera_poses)} != {len(hand_poses)}"
        )
    if len(camera_poses) < 2:
        raise TooFewPosesError(f"need at least 2 positions, got {len(camera_poses)}")
    rc, tc = _stacked(camera_poses)
    rh, th = _stacked(hand_poses)
    camera = _compose(rc[1:], tc[1:], *_invert(rc[:-1], tc[:-1]))
    hand = _compose(*_invert(rh[1:], th[1:]), rh[:-1], th[:-1])
    try:
        return ConstraintSet.from_motions(*camera, *hand)
    except DegenerateRotationError as err:
        i = err.index
        raise DegenerateRotationError(f"motion {i}->{i + 1}: {err}", index=i) from err


def perspective_constraints(
    matrices: list[PerspectiveMatrix], hand_poses: list[RigidMotion]
) -> ConstraintSet:
    """Constraints pairing every position against position 1.

    The camera side of each constraint is the reduced motion of the two raw
    perspective matrices; no intrinsic/extrinsic decomposition happens.
    """
    if len(matrices) != len(hand_poses):
        raise ValueError(
            f"input lists differ in length: {len(matrices)} != {len(hand_poses)}"
        )
    if len(matrices) < 2:
        raise TooFewPosesError(f"need at least 2 positions, got {len(matrices)}")
    first = matrices[0]
    camera = _reduced(
        first.linear,
        first.offset,
        np.stack([m.linear for m in matrices[1:]]),
        np.stack([m.offset for m in matrices[1:]]),
    )
    rh, th = _stacked(hand_poses)
    hand = _compose(*_invert(rh[1:], th[1:]), rh[0], th[0])
    try:
        return ConstraintSet.from_motions(*camera, *hand)
    except DegenerateRotationError as err:
        i = err.index
        raise DegenerateRotationError(f"positions 1->{i + 2}: {err}", index=i) from err
