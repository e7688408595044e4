"""Quaternion algebra used to represent and estimate rotations.

Quaternions are numpy arrays ``[w, x, y, z]`` with the scalar part first.
A 3-vector embeds as the purely imaginary quaternion ``[0, x, y, z]``.
All functions are pure and broadcast over leading batch dimensions, so a
``(n, 4)`` array of quaternions (or ``(n, 3, 3)`` of rotation matrices)
is as valid an argument as a single one.  Each entry of a batch is
bit-identical to the same entry computed alone: branches are selections
over the batch, and dot products and norms go through ``vdot``/``vnorm``.

The two 4x4 operators ``q_matrix`` and ``w_matrix`` turn multiplication
into matrix products::

    qmul(r, q) == q_matrix(r) @ q == w_matrix(q) @ r

and satisfy ``q_matrix(r).T @ q_matrix(r) == (r . r) * I`` (same for
``w_matrix``).  Rotation of a vector v by a unit quaternion is the
sandwich product q * v * conj(q).
"""

from __future__ import annotations

import numpy as np

from .errors import NotARotationError

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def embed(v) -> np.ndarray:
    """Embed 3-vector(s) as purely imaginary quaternion(s)."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (4,))
    out[..., 1:] = v
    return out


def q_matrix(r) -> np.ndarray:
    """4x4 matrix of left-multiplication by r: q_matrix(r) @ q = qmul(r, q)."""
    r = np.asarray(r, dtype=float)
    w, x, y, z = r[..., 0], r[..., 1], r[..., 2], r[..., 3]
    entries = (
        w, -x, -y, -z,
        x, w, -z, y,
        y, z, w, -x,
        z, -y, x, w,
    )
    return np.stack(entries, axis=-1).reshape(r.shape[:-1] + (4, 4))


def w_matrix(r) -> np.ndarray:
    """4x4 matrix of right-multiplication by r: w_matrix(r) @ q = qmul(q, r)."""
    r = np.asarray(r, dtype=float)
    w, x, y, z = r[..., 0], r[..., 1], r[..., 2], r[..., 3]
    entries = (
        w, -x, -y, -z,
        x, w, z, -y,
        y, -z, w, x,
        z, y, -x, w,
    )
    return np.stack(entries, axis=-1).reshape(r.shape[:-1] + (4, 4))


def qmul(r, q) -> np.ndarray:
    """Quaternion product r * q (Hamilton convention)."""
    r = np.asarray(r, dtype=float)
    q = np.asarray(q, dtype=float)
    rw, rx, ry, rz = r[..., 0], r[..., 1], r[..., 2], r[..., 3]
    qw, qx, qy, qz = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack(
        (
            rw * qw - rx * qx - ry * qy - rz * qz,
            rw * qx + rx * qw + ry * qz - rz * qy,
            rw * qy - rx * qz + ry * qw + rz * qx,
            rw * qz + rx * qy - ry * qx + rz * qw,
        ),
        axis=-1,
    )


def conjugate(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def dot(r, q) -> np.ndarray:
    return np.sum(np.asarray(r, dtype=float) * np.asarray(q, dtype=float), axis=-1)


def norm2(q) -> np.ndarray:
    """Squared norm q . q."""
    return dot(q, q)


def vdot(a, b) -> np.ndarray:
    """Dot product over the last axis, bit-equal to ``ndarray.dot`` on 1-D
    operands: every row goes through the same BLAS dot, whatever the
    leading shape (``np.sum(a * b, -1)`` rounds differently)."""
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def vnorm(v) -> np.ndarray:
    """Euclidean norm over the last axis, bit-equal to ``np.linalg.norm``
    of each 1-D row."""
    return np.sqrt(vdot(v, v))


# With powers of two as weights, the sign of (sign pattern @ weights) is
# the sign of the pattern's first nonzero entry.
_LEAD_WEIGHTS = np.array([8.0, 4.0, 2.0, 1.0])


def canonicalize(q) -> np.ndarray:
    """Fix the q/-q ambiguity: w >= 0, ties broken by the first nonzero
    imaginary component being positive."""
    q = np.asarray(q, dtype=float)
    # +1 for positive entries, -1 for negative (or NaN) ones, 0 for zeros
    pattern = 2.0 * (q > 0.0) - (q != 0.0)
    return q * (1.0 - 2.0 * (pattern @ _LEAD_WEIGHTS < 0.0))[..., None]


# Largest |q.q - 1| that ``as_unit`` accepts.
UNIT_TOL = 1e-12

# Largest orthonormality residual (Frobenius) ``from_rotation_matrix``
# accepts.
_ORTHONORMALITY_TOL = 1e-6


def unit_error(q) -> np.ndarray:
    """|q.q - 1| of each quaternion: the quantity ``as_unit`` bounds."""
    return np.abs(norm2(q) - 1.0)


def off_unity(err: float) -> ValueError:
    """The error ``as_unit`` raises for a quaternion with |q.q - 1| = err."""
    return ValueError(f"quaternion norm off unity by {err:.3e}")


def as_unit(q) -> np.ndarray:
    """Validate unit norm and return the canonical-sign representative.

    Raises ValueError when |q.q - 1| > ``UNIT_TOL`` for any quaternion;
    does not renormalize.
    """
    q = np.asarray(q, dtype=float)
    err = unit_error(q)
    if np.any(err > UNIT_TOL):
        raise off_unity(np.max(err))
    return canonicalize(q)


def rotate_vector(q, v) -> np.ndarray:
    """Rotate 3-vector(s) v by unit quaternion q via q * v * conj(q).

    The sandwich of a purely imaginary quaternion is purely imaginary, so
    the real part is dropped.
    """
    return qmul(qmul(q, embed(v)), conjugate(q))[..., 1:]


def to_rotation_matrix(q) -> np.ndarray:
    """3x3 rotation matrix of a unit quaternion (lower block of
    w_matrix(q).T @ q_matrix(q))."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    ww, xx, yy, zz = w * w, x * x, y * y, z * z
    entries = (
        ww + xx - yy - zz, 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), ww - xx + yy - zz, 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), ww - xx - yy + zz,
    )
    return np.stack(entries, axis=-1).reshape(q.shape[:-1] + (3, 3))


def from_rotation_matrix(m) -> np.ndarray:
    """Canonical-sign unit quaternion of a rotation matrix.

    Branches on the largest of (trace, diagonal entries), which keeps the
    divisor away from zero for every rotation angle.  A stack evaluates
    all four branches and selects one per matrix.

    Raises NotARotationError when a matrix is farther than 1e-6 from
    orthonormal (Frobenius), or not finite, or has non-positive
    determinant.
    """
    m = np.asarray(m, dtype=float)
    if m.shape[-2:] != (3, 3):
        raise NotARotationError(f"expected 3x3 matrix, got {m.shape}")
    residual = np.linalg.norm(np.swapaxes(m, -1, -2) @ m - np.eye(3), axis=(-2, -1))
    if not (residual <= _ORTHONORMALITY_TOL).all():
        raise NotARotationError(
            f"orthonormality residual {np.max(residual):.3e} > {_ORTHONORMALITY_TOL:.1e}"
        )
    if not (np.linalg.det(m) > 0.0).all():
        raise NotARotationError("determinant is not positive")

    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = (
        (m[..., i, 0], m[..., i, 1], m[..., i, 2]) for i in range(3)
    )
    t = m00 + m11 + m22
    # the branches a matrix does not take may divide by zero or take the
    # square root of a negative number
    with np.errstate(divide="ignore", invalid="ignore"):
        s = 2.0 * np.sqrt(1.0 + t)
        by_trace = (0.25 * s, (m21 - m12) / s, (m02 - m20) / s, (m10 - m01) / s)
        s = 2.0 * np.sqrt(1.0 + m00 - m11 - m22)
        by_x = ((m21 - m12) / s, 0.25 * s, (m01 + m10) / s, (m02 + m20) / s)
        s = 2.0 * np.sqrt(1.0 - m00 + m11 - m22)
        by_y = ((m02 - m20) / s, (m01 + m10) / s, 0.25 * s, (m12 + m21) / s)
        s = 2.0 * np.sqrt(1.0 - m00 - m11 + m22)
        by_z = ((m10 - m01) / s, (m02 + m20) / s, (m12 + m21) / s, 0.25 * s)
    q = np.where(
        (t >= np.maximum(np.maximum(m00, m11), m22))[..., None],
        np.stack(by_trace, axis=-1),
        np.where(
            (m00 >= np.maximum(m11, m22))[..., None],
            np.stack(by_x, axis=-1),
            np.where((m11 >= m22)[..., None], np.stack(by_y, axis=-1), np.stack(by_z, axis=-1)),
        ),
    )
    return canonicalize(q / vnorm(q)[..., None])


def from_axis_angle(axis, angle) -> np.ndarray:
    """Unit quaternion rotating by ``angle`` (rad) about unit ``axis``."""
    axis = np.asarray(axis, dtype=float)
    half = 0.5 * np.asarray(angle, dtype=float)
    q = np.empty(np.broadcast_shapes(axis.shape[:-1], half.shape) + (4,))
    q[..., 0] = np.cos(half)
    q[..., 1:] = np.sin(half)[..., None] * axis
    return canonicalize(q / vnorm(q)[..., None])


def axis_angle(q) -> tuple[np.ndarray, np.ndarray]:
    """(unit axis, angle in [0, pi]) of a canonical unit quaternion.

    The axis of the identity rotation is undefined; (1, 0, 0) is returned.
    """
    q = canonicalize(q)
    s = vnorm(q[..., 1:])
    zero = s == 0.0
    angle = 2.0 * np.arctan2(s, q[..., 0])
    axis = q[..., 1:] / np.where(zero, 1.0, s)[..., None]
    if zero.any():
        axis[zero] = (1.0, 0.0, 0.0)
        angle = np.where(zero, 0.0, angle)
    return axis, angle[()]
