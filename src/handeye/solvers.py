"""Three hand-eye solvers over a shared constraint set.

Every solver estimates the same unknown, the rotation (as a unit
quaternion) and translation (mm) of the hand-eye transform, and differs in
how much it decouples:

* Tsai-Lenz linearizes the axis equation with the scaled-axis vector
  tan(angle/2) * axis, solves it by least squares, then solves the
  translation equation by least squares.
* The closed form minimizes the axis-alignment error over unit
  quaternions exactly, as the eigenvector of a 4x4 symmetric matrix for
  its smallest eigenvalue (``np.linalg.eigh``), then solves translation
  the same way.  The matrix is linear in the axes' cross-covariance: each
  entry of the rotation matrix R(q) is a fixed quadratic form in q
  (``_ROTATION_FORMS``), and the matrix sums those forms weighted by the
  covariance's entries.
* The nonlinear solver minimizes the full coupled objective over all
  seven parameters simultaneously with Levenberg-Marquardt, starting from
  the closed-form solution.  Its residuals are linear in R(q), so their
  Jacobian is one matmul per problem with the same forms.

The coupled objective is fixed: the axis-alignment and translation-transfer
terms have unit weight, the unit-norm penalty weighs ``UNIT_PENALTY``
(2e6), and translations are divided by the RMS motion-translation span of
the constraint set.  The optimizer stops after ``MAX_ITERATIONS`` (200)
iterations; a solution that stops there with a gradient norm above 1e-6
is not converged.

Each stacked linear least-squares system (the Tsai-Lenz axis system and
the translation system, whose matrix K - I both direct methods share) is
decomposed once, by one ``np.linalg.svd`` of the whole batch.  Its
singular values are the degeneracy gate: a system whose condition number
exceeds ``CONDITION_LIMIT`` (1e8) is rejected as IllConditionedError.  Its
factors give the solution x = V diag(1/s) U' b.

The solvers run on batches: a ``ConstraintSet`` of shape (J, n, ...) holds
J independent problems with n motions each, and every step is an array
operation over the leading problem axis.  The Levenberg-Marquardt loop is
masked: each problem keeps its own damping, acceptance and termination,
and leaves the active set when it terminates.  A problem that a check
rejects is not raised but recorded in ``SolutionBatch.errors``, with the
``CalibrationError`` that ``solve`` raises for it.  Every solve, and
``report_residuals``, ends in one step, ``_Failures.finish``: it computes
the two report metrics, checks the unit norm, picks the canonical sign of
q and records the rows whose estimate or metric is not finite.  There are
two entry points:
``solve_batch`` runs all three methods on one batch and shares the
closed-form solution with the nonlinear start, and ``solve`` runs one
method on a batch of one and raises the recorded error.  Batching changes
no arithmetic: every row passes through the same library kernels in the
same memory layout, so a problem solved in a batch is bit-identical to
the same problem solved alone.

``build_quadratic`` assembles the closed quadratic form of the coupled
objective whose term count does not grow with the number of motions, from
the same forms; it is kept as a cross-check of the objective the optimizer
descends against ``objective_value``, its direct sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import quaternion as quat
from .errors import (
    CalibrationError,
    IllConditionedError,
    TooFewMotionsError,
    ZeroTranslationError,
)
from .geometry import ConstraintSet

# Shared threshold: a stacked linear system with a larger spectral condition
# number is treated as rank-deficient.
CONDITION_LIMIT = 1e8

# Eigenvalue gap below which the minimizing quaternion is not unique.
EIGENVALUE_GAP = 1e-9

# Weight of the squared unit-norm violation in the simultaneous objective.
UNIT_PENALTY = 2.0e6

# Iteration cap of the Levenberg-Marquardt loop.
MAX_ITERATIONS = 200

# Row weight of the unit-norm residual, whose square is UNIT_PENALTY.
_PENALTY_ROW = np.sqrt(UNIT_PENALTY)

# Entry (a, b) of ``quat.to_rotation_matrix(q)`` is q' _ROTATION_FORMS[a, b] q;
# each symmetric 4x4 form is read off R by polarization.
_ROTATION_FORMS = np.moveaxis(
    quat.to_rotation_matrix(np.eye(4)[:, None] + np.eye(4))
    - quat.to_rotation_matrix(np.eye(4)[:, None] - np.eye(4)),
    (0, 1), (2, 3),
) / 4.0


class Method(str, Enum):
    TSAI_LENZ = "tsai-lenz"
    CLOSED_FORM = "closed-form"
    NONLINEAR = "nonlinear"


@dataclass(frozen=True, eq=False)
class HandEyeSolution:
    """Estimated hand-eye transform plus the two report metrics.

    ``rotation_residual`` is the summed squared Frobenius mismatch of the
    rotation equation; ``translation_residual`` is the relative summed
    squared mismatch of the translation equation.  ``iterations`` is zero
    for the direct methods.  ``converged`` is False only when the
    optimizer hit its iteration cap with a non-vanishing gradient; the
    best iterate is still returned.
    """

    rotation: np.ndarray     # unit quaternion [w, x, y, z], canonical sign
    translation: np.ndarray  # mm
    rotation_residual: float
    translation_residual: float
    method: Method
    iterations: int = 0
    converged: bool = True

    def __post_init__(self):
        object.__setattr__(self, "rotation", quat.as_unit(self.rotation))
        t = np.asarray(self.translation, dtype=float)
        if t.shape != (3,) or not np.isfinite(t).all():
            raise ValueError("translation must be a finite 3-vector")
        object.__setattr__(self, "translation", t)
        residuals = np.array([self.rotation_residual, self.translation_residual])
        if not (np.isfinite(residuals) & (residuals >= 0)).all():
            raise ValueError("residuals must be finite and non-negative")

    @property
    def rotation_matrix(self) -> np.ndarray:
        return quat.to_rotation_matrix(self.rotation)


class SolutionBatch(NamedTuple):
    """One method's solutions of a batch of J problems, one row each.

    ``errors[j]`` is the ``CalibrationError`` that ``solve`` raises for
    problem j (among them the ``ZeroTranslationError`` of a vanishing
    transfer norm and the plain ``CalibrationError`` of a non-unit or
    non-finite estimate or metric), or None; the rows of a failed problem
    hold no estimate.
    """

    method: Method
    rotation: np.ndarray              # (J, 4), canonical sign
    translation: np.ndarray           # (J, 3) mm
    rotation_residual: np.ndarray     # (J,)
    translation_residual: np.ndarray  # (J,)
    iterations: np.ndarray            # (J,) int
    converged: np.ndarray             # (J,) bool
    errors: tuple

    @property
    def ok(self) -> np.ndarray:
        return _ok(self.errors)

    def solution(self, j: int = 0) -> HandEyeSolution:
        """Problem j as a HandEyeSolution; raises its recorded error."""
        if self.errors[j] is not None:
            raise self.errors[j]
        return HandEyeSolution(
            self.rotation[j],
            self.translation[j].copy(),
            float(self.rotation_residual[j]),
            float(self.translation_residual[j]),
            self.method,
            iterations=int(self.iterations[j]),
            converged=bool(self.converged[j]),
        )


def _ok(errors) -> np.ndarray:
    return np.array([err is None for err in errors], dtype=bool)


class _Failures:
    """The first error of each problem of a batch, in check order; its
    ``finish`` ends every solve."""

    def __init__(self, errors):
        self.errors = list(errors)

    @classmethod
    def none(cls, size: int) -> "_Failures":
        return cls([None] * size)

    @property
    def ok(self) -> np.ndarray:
        return _ok(self.errors)

    def record(self, bad, make_error):
        """Record ``make_error(j)`` for every flagged problem j still ok."""
        for j in np.flatnonzero(bad):
            if self.errors[j] is None:
                self.errors[j] = make_error(j)

    def record_non_finite(self, **named):
        """Fail each row still ok whose named values are not all finite
        (the input overflowed) with CalibrationError, in argument order."""
        for what, values in named.items():
            finite = np.isfinite(values.reshape(len(self.errors), -1)).all(axis=-1)
            self.record(
                ~finite,
                lambda j, what=what.replace("_", " "): CalibrationError(
                    f"{what} is not finite: the input is out of numeric range"
                ),
            )

    def finish(self, method, cs, q, t, iterations=None, converged=None):
        """The batch's solutions for the estimate (q, t) of each problem of
        ``cs``, with their metrics and q's canonical sign.  A row still ok
        fails with ZeroTranslationError when its transfer norm vanishes,
        then with CalibrationError when |q.q - 1| exceeds ``quat.UNIT_TOL``
        or its estimate or a metric is not finite."""
        size = len(q)
        rot_res, tr_res = _metrics(cs, q, t, self)
        err = np.abs(quat.norm2(q) - 1.0)
        self.record(
            err > quat.UNIT_TOL,
            lambda j: CalibrationError(f"quaternion norm off unity by {err[j]:.3e}"),
        )
        q = quat.canonicalize(q)
        self.record_non_finite(
            quaternion=q, translation=t, rotation_residual=rot_res, translation_residual=tr_res
        )
        return SolutionBatch(
            method, q, t, rot_res, tr_res,
            np.zeros(size, dtype=int) if iterations is None else iterations,
            np.ones(size, dtype=bool) if converged is None else converged,
            tuple(self.errors),
        )


def _one(constraints: ConstraintSet) -> ConstraintSet:
    """A single problem as a batch of one."""
    return ConstraintSet(*(a[None] for a in constraints.arrays))


def _rejected(method: Method, cs: ConstraintSet, message: str) -> SolutionBatch:
    """Every problem of a batch failed with TooFewMotionsError."""
    size = len(cs.camera_rotation)
    fail = _Failures([TooFewMotionsError(message) for _ in range(size)])
    return fail.finish(method, cs, np.full((size, 4), np.nan), np.full((size, 3), np.nan))


def _least_squares(svd: tuple, b: np.ndarray, what: str, fail: _Failures) -> np.ndarray:
    """Least-squares solution x = V diag(1/s) U' b of each problem's system
    a x = b, from its SVD ``np.linalg.svd(a, full_matrices=False)``, one
    for the whole batch.

    Its singular values are the condition gate: a problem whose system is
    singular or beyond ``CONDITION_LIMIT`` is recorded as
    IllConditionedError.  Problems that are not ok get NaN.
    """
    u, s, vt = svd
    lo, hi = s[:, -1], s[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = hi / lo
    fail.record(
        (lo <= 0.0) | (cond > CONDITION_LIMIT),
        lambda j: IllConditionedError(
            f"{what}: condition number "
            f"{'inf' if lo[j] <= 0 else f'{cond[j]:.2e}'} "
            f"exceeds {CONDITION_LIMIT:.0e}"
        ),
    )
    coefficients = (np.swapaxes(u, -1, -2) @ b[..., None])[..., 0]
    coefficients /= np.where(fail.ok[:, None], s, np.nan)
    return (np.swapaxes(vt, -1, -2) @ coefficients[..., None])[..., 0]


def _skew(v: np.ndarray) -> np.ndarray:
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    out = np.zeros(v.shape + (3,))
    out[..., 0, 1], out[..., 0, 2] = -z, y
    out[..., 1, 0], out[..., 1, 2] = z, -x
    out[..., 2, 0], out[..., 2, 1] = -y, x
    return out


def _alignment(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """4x4 symmetric matrix whose quadratic form at a unit q is
    sum_n |a_n - R(q) b_n|^2, of (..., n, 3) vector pairs.

    Since a_n' R(q) b_n = sum_ab (a_n b_n')_ab q' F_ab q, the matrix is
    (sum_n |a_n|^2 + |b_n|^2) I - 2 sum_ab C_ab F_ab, with C = sum_n a_n b_n'
    and F = ``_ROTATION_FORMS``: one matmul per problem.
    """
    lead = a.shape[:-2]
    flat_a, flat_b = a.reshape(lead + (-1,)), b.reshape(lead + (-1,))
    squares = quat.vdot(flat_a, flat_a) + quat.vdot(flat_b, flat_b)
    cov = (np.swapaxes(a, -1, -2) @ b).reshape(lead + (1, 9))
    forms = (cov @ _ROTATION_FORMS.reshape(9, 16)).reshape(lead + (4, 4))
    return squares[..., None, None] * np.eye(4) - 2.0 * forms


def axis_alignment_matrix(constraints: ConstraintSet) -> np.ndarray:
    """4x4 symmetric matrix whose quadratic form over unit quaternions is
    the summed squared axis-alignment error (one per problem of a batch)."""
    return _alignment(constraints.camera_axis, constraints.hand_axis)


def _metrics(cs: ConstraintSet, q: np.ndarray, t: np.ndarray, fail: _Failures):
    k, rb = cs.camera_rotation, cs.hand_rotation
    pp, p = cs.camera_translation, cs.hand_translation
    size = len(q)
    r3 = quat.to_rotation_matrix(q)
    # Huge finite input overflows here; ``finish`` records the row.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        rot = np.sum(((k @ r3[:, None] - r3[:, None] @ rb) ** 2).reshape(size, -1), axis=-1)
        transfer = p @ np.swapaxes(r3, -1, -2) - pp     # what the translation must explain
        mismatch = ((k - np.eye(3)) @ t[:, None, :, None])[..., 0] - transfer
        denom = np.sum((transfer**2).reshape(size, -1), axis=-1)
        tr = np.sum((mismatch**2).reshape(size, -1), axis=-1) / denom
    fail.record(
        denom == 0.0,
        lambda j: ZeroTranslationError(
            "translation-transfer norm is zero; relative error undefined"
        ),
    )
    return rot, tr


def report_residuals(
    constraints: ConstraintSet, solution: HandEyeSolution
) -> tuple[float, float]:
    """The two table metrics of a solution on a constraint set.

    Returns (summed squared rotation-equation error, relative summed
    squared translation-equation error).  Raises ZeroTranslationError when
    the translation-transfer norm vanishes, and CalibrationError when a
    metric overflows.
    """
    batch = _Failures.none(1).finish(
        solution.method, _one(constraints), solution.rotation[None], solution.translation[None]
    )
    if batch.errors[0] is not None:
        raise batch.errors[0]
    return float(batch.rotation_residual[0]), float(batch.translation_residual[0])


# ---------------------------------------------------------------------------
# decoupled solvers

def _unique_rotation(cs: ConstraintSet, fail: _Failures) -> np.ndarray:
    """The closed-form rotation, of either sign; IllConditionedError when
    it is not unique."""
    vals, vecs = np.linalg.eigh(axis_alignment_matrix(cs))
    fail.record(
        vals[:, 1] - vals[:, 0] < EIGENVALUE_GAP,
        lambda j: IllConditionedError(
            f"smallest eigenvalues {vals[j, 0]:.3e}, {vals[j, 1]:.3e} nearly coincide; "
            "rotation is not unique"
        ),
    )
    column = np.ascontiguousarray(vecs[:, :, 0])
    return column / quat.vnorm(column)[:, None]


def _translation_svd(cs: ConstraintSet) -> tuple:
    """The SVD of each problem's translation system (K - I) t = ..., whose
    matrix does not depend on the rotation: both direct methods share it."""
    a = (cs.camera_rotation - np.eye(3)).reshape(len(cs.camera_rotation), -1, 3)
    return np.linalg.svd(a, full_matrices=False)


def _translation_ls(cs: ConstraintSet, svd: tuple, q: np.ndarray, fail: _Failures) -> np.ndarray:
    r3 = quat.to_rotation_matrix(q)
    rhs = cs.hand_translation @ np.swapaxes(r3, -1, -2) - cs.camera_translation
    return _least_squares(svd, rhs.reshape(len(q), -1), "translation system", fail)


def _tsai_lenz(cs: ConstraintSet, translation_svd: tuple) -> SolutionBatch:
    """Linear two-step solver: scaled-axis vector first, translation second.

    The axis equation camera_axis = R(hand_axis) linearizes over the
    scaled-axis unknown g = tan(angle/2) * axis as

        skew(camera_axis + hand_axis) @ g = hand_axis - camera_axis,

    three rows per motion, rank 2 each, so at least two motions with
    distinct axes are required.
    """
    size, n = len(cs.camera_rotation), len(cs)
    if n < 2:
        return _rejected(Method.TSAI_LENZ, cs, f"need at least 2 motions, got {n}")
    fail = _Failures.none(size)
    vp, v = cs.camera_axis, cs.hand_axis
    a = _skew(vp + v).reshape(size, -1, 3)
    svd = np.linalg.svd(a, full_matrices=False)
    g = _least_squares(svd, (v - vp).reshape(size, -1), "axis system", fail)
    magnitude = quat.vnorm(g)
    identity = magnitude <= 1e-12
    # atan-based angle recovery stays finite for large |g| (angles near pi)
    q = quat.from_axis_angle(
        g / np.where(identity, 1.0, magnitude)[:, None], 2.0 * np.arctan(magnitude)
    )
    q = np.where(identity[:, None], quat.IDENTITY, q)
    t = _translation_ls(cs, translation_svd, q, fail)
    return fail.finish(Method.TSAI_LENZ, cs, q, t)


def _closed_form(cs: ConstraintSet, translation_svd: tuple) -> SolutionBatch:
    """Optimal rotation over unit quaternions, then linear translation.

    The summed squared axis-alignment error is a quadratic form q' A q;
    its constrained minimizer is the eigenvector of A for the smallest
    eigenvalue.  A gap below 1e-9 (``EIGENVALUE_GAP``) between the two
    smallest eigenvalues means the minimizer is not unique (single motion,
    or parallel axes) and the problem is rejected.
    """
    if len(cs) == 0:
        return _rejected(Method.CLOSED_FORM, cs, "need at least 2 motions, got 0")
    fail = _Failures.none(len(cs.camera_rotation))
    q = _unique_rotation(cs, fail)
    t = _translation_ls(cs, translation_svd, q, fail)
    return fail.finish(Method.CLOSED_FORM, cs, q, t)


# ---------------------------------------------------------------------------
# simultaneous nonlinear solver

@dataclass(frozen=True, eq=False)
class QuadraticObjective:
    """Closed quadratic form of the simultaneous objective.

    ``evaluate`` returns

        q' rotation_quad q + t' translation_quad t + translation_linear . t
        + coupling[1:] . R(q)' t
        + UNIT_PENALTY (1 - q.q)^2

    with R(q) = ``quat.to_rotation_matrix(q)``.  It matches the directly
    summed objective at any unit quaternion whenever each constraint's
    camera rotation is the similarity image of its hand rotation under q.
    """

    rotation_quad: np.ndarray      # 4x4 symmetric
    translation_quad: np.ndarray   # 3x3
    translation_linear: np.ndarray  # (3,)
    coupling: np.ndarray           # (4,), purely imaginary row

    def __post_init__(self):
        if np.linalg.norm(self.rotation_quad - self.rotation_quad.T) > 1e-12:
            raise ValueError("rotation block must be symmetric")

    def evaluate(self, q, t) -> float:
        q = np.asarray(q, dtype=float)
        t = np.asarray(t, dtype=float)
        value = (
            q @ self.rotation_quad @ q
            + t @ self.translation_quad @ t
            + self.translation_linear @ t
            + self.coupling[1:] @ quat.to_rotation_matrix(q).T @ t
            + UNIT_PENALTY * (1.0 - q @ q) ** 2
        )
        return float(value)


def build_quadratic(constraints: ConstraintSet) -> QuadraticObjective:
    """Assemble the constant-size quadratic form of the coupled objective."""
    cs = constraints
    rb, pp, p = cs.hand_rotation, cs.camera_translation, cs.hand_translation
    kmi = cs.camera_rotation - np.eye(3)
    return QuadraticObjective(
        rotation_quad=axis_alignment_matrix(cs) + _alignment(pp, p),
        translation_quad=np.einsum("nji,njk->ik", kmi, kmi),
        translation_linear=2.0 * np.einsum("ni,nij->j", pp, kmi),
        coupling=quat.embed(-2.0 * np.einsum("ni,nij->j", p, rb - np.eye(3))),
    )


def objective_value(constraints: ConstraintSet, q, t) -> float:
    """Directly summed simultaneous objective (no quadratic shortcut)."""
    cs = constraints
    k, vp, v = cs.camera_rotation, cs.camera_axis, cs.hand_axis
    pp, p = cs.camera_translation, cs.hand_translation
    q = np.asarray(q, dtype=float)
    t = np.asarray(t, dtype=float)
    rotated_v = quat.rotate_vector(q, v)
    rotated_p = quat.rotate_vector(q, p)
    f1 = float(np.sum((vp - rotated_v) ** 2))
    f2 = float(np.sum((rotated_p - (k - np.eye(3)) @ t - pp) ** 2))
    return f1 + f2 + UNIT_PENALTY * (1.0 - float(q @ q)) ** 2



class _LMProblem(NamedTuple):
    """Residuals and Jacobian of the 7-parameter problem, for a batch.

    Residual layout per problem: 3 axis-alignment rows per motion, then 3
    translation rows per motion, then the scalar norm penalty.  The data
    rows are ``hand @ R(q)' - camera``, minus (K - I) t on the translation
    rows, with R(q) = ``quat.to_rotation_matrix(q)``; translations are
    divided by the problem's scale, and its translation parameter is in
    units of that scale.  Entry (a, b) of R(q) is the quadratic form
    q' F_ab q of ``_ROTATION_FORMS``, so the q-columns of every data row
    are one matmul of ``hand`` with the (3, 12) layout of 2 F q.  Each
    problem's product is computed on its own, so a row of the batch equals
    the problem's Jacobian taken alone.
    """

    hand: np.ndarray    # (J, 2n, 3): hand axes, then hand translations / scale
    camera: np.ndarray  # (J, 2n, 3): the same for the camera
    kmi: np.ndarray     # (J, n, 3, 3): camera rotation - I

    @classmethod
    def build(cls, cs: ConstraintSet, scale):
        s = scale[:, None, None]
        return cls(
            np.concatenate([cs.hand_axis, cs.hand_translation / s], axis=1),
            np.concatenate([cs.camera_axis, cs.camera_translation / s], axis=1),
            cs.camera_rotation - np.eye(3),
        )

    def take(self, rows) -> "_LMProblem":
        return _LMProblem(*(a[rows] for a in self))

    def residuals(self, x: np.ndarray) -> np.ndarray:
        size, n = x.shape[0], self.kmi.shape[1]
        q, t = x[:, :4], x[:, 4:]
        moved = self.hand @ np.swapaxes(quat.to_rotation_matrix(q), -1, -2) - self.camera
        moved[:, n:] -= (self.kmi @ t[:, None, :, None])[..., 0]
        r = np.empty((size, 6 * n + 1))
        r[:, :-1] = moved.reshape(size, -1)
        r[:, -1] = _PENALTY_ROW * (1.0 - quat.vdot(q, q))
        return r

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        size, n = x.shape[0], self.kmi.shape[1]
        q = x[:, :4]
        # Row b, column 4a + k: d R[a, b] / d q_k.  Exact: each row of a form
        # holds one nonzero, +-1, so each entry is one product +-2 q_l.
        d_rot = (2.0 * q) @ _ROTATION_FORMS.transpose(3, 1, 0, 2).reshape(4, 36)
        jac = np.zeros((size, 6 * n + 1, 7))
        jac[:, :-1, :4] = (self.hand @ d_rot.reshape(size, 3, 12)).reshape(size, -1, 4)
        jac[:, 3 * n : -1, 4:] = (-self.kmi).reshape(size, -1, 3)
        jac[:, -1, :4] = -2.0 * _PENALTY_ROW * q
        return jac


def _levenberg_marquardt(problem: _LMProblem, x, live):
    """Masked LM over problems ``live`` of ``x`` (updated in place).

    Returns (iterations, converged by step or decrease) for all rows of x.
    The active set is compacted, and the problem's arrays re-indexed, only
    when some problem terminates.
    """
    iterations = np.zeros(len(x), dtype=int)
    converged = np.zeros(len(x), dtype=bool)
    if not len(live):
        return iterations, converged
    if len(live) < len(x):
        problem = problem.take(live)
    xs = x[live]
    r = problem.residuals(xs)
    cost = quat.vdot(r, r)
    done = cost == 0.0
    stop = done.copy()
    mu = np.full(len(live), np.nan)
    count = np.zeros(len(live), dtype=int)
    eye7 = np.eye(7)
    while True:
        stop |= count >= MAX_ITERATIONS
        if stop.any():
            x[live[stop]] = xs[stop]
            iterations[live[stop]] = count[stop]
            converged[live[stop]] = done[stop]
            keep = ~stop
            if not keep.any():
                break
            live, xs, r, cost, mu, count, done = (
                a[keep] for a in (live, xs, r, cost, mu, count, done)
            )
            stop = np.zeros(len(live), dtype=bool)
            problem = problem.take(keep)
        jac = problem.jacobian(xs)
        jac_t = np.swapaxes(jac, -1, -2)
        grad = (jac_t @ r[..., None])[..., 0]
        jtj = jac_t @ jac
        fresh = np.isnan(mu)
        if fresh.any():
            mu = np.where(fresh, 1e-3 * np.max(np.diagonal(jtj, axis1=-2, axis2=-1), axis=-1), mu)
        count += 1
        step = np.linalg.solve(jtj + mu[:, None, None] * eye7, -grad[..., None])[..., 0]
        x_new = xs + step
        r_new = problem.residuals(x_new)
        cost_new = quat.vdot(r_new, r_new)
        accept = cost_new <= cost
        decrease = cost - cost_new
        xs = np.where(accept[:, None], x_new, xs)
        r = np.where(accept[:, None], r_new, r)
        cost = np.where(accept, cost_new, cost)
        mu = mu * np.where(accept, 0.1, 10.0)
        done = accept & (
            (quat.vnorm(step) < 1e-12) | (decrease < 1e-14 * np.maximum(cost, 1e-300))
        )
        stop = done | (~accept & (mu > 1e64))
    return iterations, converged


def translation_span(constraints: ConstraintSet) -> float:
    """RMS motion-translation magnitude of a constraint set, mm (one per
    problem of a batch)."""
    pp, p = constraints.camera_translation, constraints.hand_translation
    with np.errstate(over="ignore"):  # an infinite span fails in the metrics
        squares = np.sum(pp**2, axis=-1) + np.sum(p**2, axis=-1)
    return np.sqrt(0.5 * np.mean(squares, axis=-1))[()]


def _nonlinear(cs: ConstraintSet, start: SolutionBatch) -> SolutionBatch:
    """Simultaneous rotation-translation estimate by Levenberg-Marquardt,
    from the rows of ``start``.

    Minimizes the coupled objective over 4 quaternion + 3 translation
    parameters with an analytic Jacobian: the summed squared axis
    alignment and translation transfer, both with unit weight, plus 2e6
    (``UNIT_PENALTY``) times the squared unit-norm violation.  Damping
    starts at 1e-3 times the largest diagonal of J'J and is multiplied by
    10 on a rejected step, divided by 10 on an accepted one.  Converged
    when the step norm drops below 1e-12 or the relative objective
    decrease below 1e-14, capped at 200 iterations (``MAX_ITERATIONS``);
    a capped row is still converged if its gradient norm is at most 1e-6,
    and keeps its best iterate either way.

    With unit weights, millimetre translations would make the translation
    term drown out the axis term by several orders of magnitude and
    actually degrade the rotation estimate.  The objective is therefore
    evaluated with translations divided by the RMS motion-translation
    magnitude of the constraint set (``translation_span``); the two terms
    then carry comparable weight and the simultaneous estimate dominates
    the decoupled ones.

    Degenerate problems (non-unique rotation, or a translation stack
    beyond the condition limit) are those the closed-form ``start``
    rejects: they keep its error and are not iterated, since an optimum
    along a flat direction would be an arbitrary answer, not an estimate.
    """
    n = len(cs)
    if n < 2:
        return _rejected(Method.NONLINEAR, cs, f"need at least 2 motions, got {n}")
    span = translation_span(cs)
    scale = np.where(span <= 0.0, 1.0, span)
    problem = _LMProblem.build(cs, scale)
    fail = _Failures(start.errors)
    x = np.concatenate([start.rotation, start.translation / scale[:, None]], axis=1)
    ok = np.flatnonzero(fail.ok)
    iterations, converged = _levenberg_marquardt(problem, x, ok)

    # Capped or stalled: converged after all if the gradient vanishes.
    stalled = ok[~converged[ok]]
    if len(stalled):
        sub = problem.take(stalled)
        jac_t = 2.0 * np.swapaxes(sub.jacobian(x[stalled]), -1, -2)
        grad = (jac_t @ sub.residuals(x[stalled])[..., None])[..., 0]
        converged[stalled] = quat.vnorm(grad) <= 1e-6

    q = x[:, :4] / quat.vnorm(x[:, :4])[:, None]
    with np.errstate(invalid="ignore"):  # 0 * inf of an overflowed span
        t = x[:, 4:] * scale[:, None]
    return fail.finish(Method.NONLINEAR, cs, q, t, iterations, converged)


def solve(method: Method, constraints: ConstraintSet) -> HandEyeSolution:
    """One problem (n, ...) solved by one method (a ``Method`` or its
    name); raises the problem's error."""
    cs = _one(constraints)
    method = Method(method)
    translation_svd = _translation_svd(cs)
    if method is Method.TSAI_LENZ:
        return _tsai_lenz(cs, translation_svd).solution()
    start = _closed_form(cs, translation_svd)
    return (start if method is Method.CLOSED_FORM else _nonlinear(cs, start)).solution()


def solve_batch(constraints: ConstraintSet) -> dict[Method, SolutionBatch]:
    """All three methods, in ``Method`` order, on a batch of problems
    (J, n, ...).

    The direct methods share one decomposition of the translation system,
    and the nonlinear solver starts from the closed-form batch, computed
    once.  Problem j of each result is bit-identical to ``solve`` on
    problem j, and a problem it would reject is recorded, not raised.
    """
    cs = constraints
    translation_svd = _translation_svd(cs)
    start = _closed_form(cs, translation_svd)
    return {
        Method.TSAI_LENZ: _tsai_lenz(cs, translation_svd),
        Method.CLOSED_FORM: start,
        Method.NONLINEAR: _nonlinear(cs, start),
    }
