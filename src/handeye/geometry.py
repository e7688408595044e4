"""Rigid motions, perspective matrices, and constraint extraction.

Poses and motions follow one convention throughout: a transform maps
coordinates *from* the second frame *to* the first, so ``camera_pose``
takes calibration-frame points to camera-frame points and ``hand_pose``
takes hand-frame points to robot-base points.  Translations are in
millimetres.

Every solver in this package consumes the same per-motion record,
:class:`MotionConstraint`, regardless of whether it was extracted from
decomposed camera poses (the AX = XB route) or from raw 3x4 perspective
matrices (the MY = M'YB route).  ``classical_constraints`` and
``perspective_constraints`` build those records; the solvers stack a
list of them once into a :class:`ConstraintSet`.
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


def _check_rotation(m: np.ndarray, what: str, tol: float = _ROTATION_TOL) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise NotARotationError(f"{what}: expected 3x3, got {m.shape}")
    residual = np.linalg.norm(m.T @ m - np.eye(3))
    if residual > tol:
        raise NotARotationError(f"{what}: orthonormality residual {residual:.3e}")
    if abs(np.linalg.det(m) - 1.0) > tol:
        raise NotARotationError(f"{what}: determinant {np.linalg.det(m):.12f}")
    return m


@dataclass(frozen=True, eq=False)
class RigidMotion:
    """Rotation (3x3) plus translation (3-vector, mm)."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "rotation", _check_rotation(self.rotation, "RigidMotion.rotation")
        )
        t = np.asarray(self.translation, dtype=float)
        if t.shape != (3,):
            raise ValueError(f"translation must be a 3-vector, got shape {t.shape}")
        object.__setattr__(self, "translation", t)

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
        object.__setattr__(
            self, "camera_rotation", _check_rotation(self.camera_rotation, "camera_rotation")
        )
        object.__setattr__(
            self, "hand_rotation", _check_rotation(self.hand_rotation, "hand_rotation")
        )
        for name in ("camera_axis", "hand_axis"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (3,) or abs(np.linalg.norm(v) - 1.0) > 1e-9:
                raise ValueError(f"{name} must be a unit 3-vector")
            object.__setattr__(self, name, v)
        for name in ("camera_translation", "hand_translation"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (3,):
                raise ValueError(f"{name} must be a 3-vector")
            object.__setattr__(self, name, v)


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """n constraint records stacked once, in motion order: each field is
    the (n, ...) stack of the :class:`MotionConstraint` field of that name."""

    camera_rotation: np.ndarray     # (n, 3, 3)
    hand_rotation: np.ndarray       # (n, 3, 3)
    camera_axis: np.ndarray         # (n, 3)
    hand_axis: np.ndarray           # (n, 3)
    camera_translation: np.ndarray  # (n, 3)
    hand_translation: np.ndarray    # (n, 3)

    def __len__(self) -> int:
        return len(self.camera_rotation)

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

def compose(a: RigidMotion, b: RigidMotion) -> RigidMotion:
    """Motion applying b first, then a."""
    return RigidMotion(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


def invert(a: RigidMotion) -> RigidMotion:
    return RigidMotion(a.rotation.T, -a.rotation.T @ a.translation)


def camera_motion(pose1: RigidMotion, pose2: RigidMotion) -> RigidMotion:
    """Camera motion between two absolute camera poses (pose2 o pose1^-1)."""
    return compose(pose2, invert(pose1))


def hand_motion(pose1: RigidMotion, pose2: RigidMotion) -> RigidMotion:
    """Hand motion between two hand->base poses (pose2^-1 o pose1)."""
    return compose(invert(pose2), pose1)


def orthonormalize(m, max_residual: float = 0.5) -> np.ndarray:
    """Nearest rotation in Frobenius norm (polar projection).

    Rejects input farther than ``max_residual`` from orthonormal or with
    non-positive determinant; those are wrong data, not noise.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise NotARotationError(f"expected 3x3 matrix, got {m.shape}")
    residual = np.linalg.norm(m.T @ m - np.eye(3))
    if residual > max_residual:
        raise NotARotationError(f"orthonormality residual {residual:.3e} > {max_residual}")
    if np.linalg.det(m) <= 0.0:
        raise NotARotationError("determinant is not positive")
    u, _, vt = np.linalg.svd(m)
    r = u @ vt
    if np.linalg.det(r) < 0.0:
        r = u @ np.diag([1.0, 1.0, -1.0]) @ vt
    return r


def rotation_axis(m, min_angle: float = MIN_ROTATION_ANGLE) -> np.ndarray:
    """Unit rotation axis (eigenvector for the unit eigenvalue).

    The sign follows the canonical-sign quaternion of the matrix.  Raises
    DegenerateRotationError below ``min_angle``: a near-identity motion
    carries no usable axis and must be rejected rather than guessed.
    """
    axis, angle = quat.axis_angle(quat.from_rotation_matrix(m))
    if angle < min_angle:
        raise DegenerateRotationError(f"rotation angle {angle:.3e} rad below {min_angle:.1e}")
    return axis


def rotation_angle(m) -> float:
    """Rotation angle in [0, pi] of a rotation matrix."""
    c = 0.5 * (np.trace(np.asarray(m, dtype=float)) - 1.0)
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def reduced_motion(m1: PerspectiveMatrix, m2: PerspectiveMatrix) -> RigidMotion:
    """Relative motion two perspective matrices encode, without decomposing
    either into intrinsic and extrinsic parts.

    Returns the rigid motion (N1^-1 N2, N1^-1 (n2 - n1)).  For matrices that
    share the intrinsic block the rotation part is exact; otherwise it is
    polar-projected onto the rotation group, and rejected if its
    orthonormality residual exceeds 0.1 before projection.
    """
    n1 = m1.linear
    if abs(np.linalg.det(n1)) <= 1e-12:
        raise SingularProjectionError("first perspective matrix has a singular 3x3 block")
    k = np.linalg.solve(n1, m2.linear)
    if np.linalg.norm(k.T @ k - np.eye(3)) > 0.1:
        raise NotARotationError("reduced rotation block is too far from orthonormal")
    t = np.linalg.solve(n1, m2.offset - m1.offset)
    return RigidMotion(orthonormalize(k), t)


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
    return MotionConstraint(
        camera_rotation=camera.rotation,
        hand_rotation=hand.rotation,
        camera_axis=rotation_axis(camera.rotation),
        hand_axis=rotation_axis(hand.rotation),
        camera_translation=camera.translation,
        hand_translation=hand.translation,
    )


def classical_constraints(
    camera_poses: list[RigidMotion], hand_poses: list[RigidMotion]
) -> list[MotionConstraint]:
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
    out = []
    for i in range(1, len(camera_poses)):
        a = camera_motion(camera_poses[i - 1], camera_poses[i])
        b = hand_motion(hand_poses[i - 1], hand_poses[i])
        try:
            out.append(motion_constraint(a, b))
        except DegenerateRotationError as err:
            raise DegenerateRotationError(
                f"motion {i - 1}->{i}: {err}", index=i - 1
            ) from err
    return out


def perspective_constraints(
    matrices: list[PerspectiveMatrix], hand_poses: list[RigidMotion]
) -> list[MotionConstraint]:
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
    out = []
    for i in range(1, len(matrices)):
        reduced = reduced_motion(matrices[0], matrices[i])
        b = hand_motion(hand_poses[0], hand_poses[i])
        try:
            out.append(motion_constraint(reduced, b))
        except DegenerateRotationError as err:
            raise DegenerateRotationError(f"positions 1->{i + 1}: {err}", index=i - 1) from err
    return out
