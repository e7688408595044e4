"""Quaternion algebra used to represent and estimate rotations.

Quaternions are numpy arrays ``[w, x, y, z]`` with the scalar part first.
A 3-vector embeds as the purely imaginary quaternion ``[0, x, y, z]``.
All functions are pure and broadcast over leading batch dimensions, so a
``(n, 4)`` array of quaternions (or ``(n, 3, 3)`` of rotation matrices)
is as valid an argument as a single one.  Each entry of a batch is
bit-identical to the same entry computed alone: branches are selections
over the batch, and every dot product and norm goes through ``vdot``,
one ``np.vecdot`` call on contiguous copies of its operands.

The two 4x4 operators ``q_matrix`` and ``w_matrix`` turn multiplication
into matrix products::

    qmul(r, q) == q_matrix(r) @ q == w_matrix(q) @ r

and satisfy ``q_matrix(r).T @ q_matrix(r) == (r . r) * I`` (same for
``w_matrix``).  Rotation of a vector v by a unit quaternion is the
sandwich product q * v * conj(q).

``_rotation_check`` is the package's one test of whether a 3x3 matrix is a
rotation; each caller passes its own tolerance.
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


def vdot(a, b) -> np.ndarray:
    """Dot product over the last axis, bit-equal to ``ndarray.dot`` on 1-D
    operands: every row goes through the same BLAS dot, whatever the
    leading shape (``np.sum(a * b, -1)`` rounds differently).  The copies
    are contiguous because ``np.vecdot`` rounds differently on a strided
    last axis."""
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    return np.vecdot(a, b)


def norm2(q) -> np.ndarray:
    """Squared norm q . q."""
    return vdot(q, q)


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

# Largest orthonormality residual (Frobenius) of a rotation matrix that is
# converted (``from_rotation_matrix``) or loaded from a dataset.
_ORTHONORMALITY_TOL = 1e-6

_EYE3 = np.eye(3)


def _determinant(m: np.ndarray) -> np.ndarray:
    """Determinant of each matrix of a (..., 3, 3) stack, by cofactors
    along the first row."""
    (a, b, c), (d, e, f), (g, h, i) = (
        (m[..., k, 0], m[..., k, 1], m[..., k, 2]) for k in range(3)
    )
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _rotation_check(m: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The residual |m'm - I| (Frobenius) of each matrix of a (..., 3, 3)
    float stack, and a flag on each that is not a rotation within ``tol``:
    residual above ``tol`` or NaN, or determinant not positive.  Non-finite
    and overflowing entries fail without a warning.

    The determinant's sign comes from the cofactor expansion, not from an
    LU factorization per matrix.  It decides only matrices whose residual
    is within ``tol``; for any ``tol`` up to 0.5, the largest the package
    uses, every singular value is then at least sqrt(0.5), so |det| is at
    least 0.35 and rounding cannot flip its sign."""
    with np.errstate(all="ignore"):
        gram = np.swapaxes(m, -1, -2) @ m - _EYE3
        residual = np.sqrt(np.add.reduce(gram * gram, axis=(-2, -1)))
        return residual, ~((residual <= tol) & (_determinant(m) > 0.0))


def _require_rotations(m, tol: float, names: tuple[str, ...] = ()) -> np.ndarray:
    """``m`` as a float array, or NotARotationError unless it is a (..., 3, 3)
    stack that ``_rotation_check`` passes.  With ``names``, axis -3 holds one
    matrix per name, and the message starts with the first failing one's."""
    m = np.asarray(m, dtype=float)
    if m.shape[-2:] != (3, 3):
        raise NotARotationError(f"expected 3x3 matrix, got {m.shape}")
    residual, bad = _rotation_check(m, tol)
    if bad.any():
        first = residual[bad].flat[0]
        why = f"orthonormality residual {first:.3e} > {tol:g}"
        if first <= tol:
            why = "determinant is not positive"
        if names:
            why = f"{names[int(np.argmax(bad)) % len(names)]}: {why}"
        raise NotARotationError(why)
    return m


def as_unit(q) -> np.ndarray:
    """Validate unit norm and return the canonical-sign representative.

    Raises ValueError unless |q.q - 1| <= ``UNIT_TOL`` for every
    quaternion, so a NaN fails; does not renormalize.
    """
    q = np.asarray(q, dtype=float)
    err = np.abs(norm2(q) - 1.0)
    if not np.all(err <= UNIT_TOL):
        raise ValueError(f"quaternion norm off unity by {np.max(err):.3e}")
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
    r = np.empty(q.shape[:-1] + (9,))
    for k, entry in enumerate(entries):
        r[..., k] = entry
    return r.reshape(q.shape[:-1] + (3, 3))


def from_rotation_matrix(m) -> np.ndarray:
    """Canonical-sign unit quaternion of a rotation matrix.

    Branches on the largest of (trace, diagonal entries), which keeps the
    divisor away from zero for every rotation angle.  A stack evaluates
    all four branches and selects one per matrix.

    Raises NotARotationError when a matrix is farther than 1e-6 from
    orthonormal (Frobenius), or has a non-finite entry or a non-positive
    determinant.
    """
    return _quaternion_of(_require_rotations(m, _ORTHONORMALITY_TOL))


def _quaternion_of(m: np.ndarray) -> np.ndarray:
    """``from_rotation_matrix`` of a float stack already checked to be
    rotations."""
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
