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
  the same way.
* The nonlinear solver minimizes the full coupled objective over all
  seven parameters simultaneously with Levenberg-Marquardt, starting from
  the closed-form solution.

The coupled objective is fixed: the axis-alignment and translation-transfer
terms have unit weight, the unit-norm penalty weighs ``UNIT_PENALTY``
(2e6), and translations are divided by the RMS motion-translation span of
the constraint set.  The optimizer stops after ``MAX_ITERATIONS`` (200)
iterations; a solution that stops there with a gradient norm above 1e-6
is not converged.

Each stacked linear least-squares system (the Tsai-Lenz axis system and
the translation system of both direct methods) is decomposed once, by one
``np.linalg.svd`` of the whole batch.  Its singular values are the
degeneracy gate: a system whose condition number exceeds
``CONDITION_LIMIT`` (1e8) is rejected as IllConditionedError.  Its factors
give the solution x = V diag(1/s) U' b.

The solvers run on batches: a ``ConstraintSet`` of shape (J, n, ...) holds
J independent problems with n motions each, and every step is an array
operation over the leading problem axis.  The Levenberg-Marquardt loop is
masked: each problem keeps its own damping, acceptance and termination,
and leaves the active set when it terminates.  A problem that a check
rejects is not raised but recorded in ``SolutionBatch.errors``, with the
exception ``solve`` raises for it.  There are two entry points:
``solve_batch`` runs all three methods on one batch and shares the
closed-form solution with the nonlinear start, and ``solve`` runs one
method on a batch of one and raises the recorded error.  Batching changes
no arithmetic: every row passes through the same library kernels in the
same memory layout, so a problem solved in a batch is bit-identical to
the same problem solved alone.

``build_quadratic`` assembles the closed quadratic form of the coupled
objective whose term count does not grow with the number of motions; it is
kept as an independent cross-check of the objective the optimizer descends.
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

# Flips the sign of the imaginary parts; conjugation as a matrix.
_CONJ = np.diag([1.0, -1.0, -1.0, -1.0])


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
        if t.shape != (3,):
            raise ValueError("translation must be a 3-vector")
        object.__setattr__(self, "translation", t)
        if self.rotation_residual < 0 or self.translation_residual < 0:
            raise ValueError("residuals must be non-negative")

    @property
    def rotation_matrix(self) -> np.ndarray:
        return quat.to_rotation_matrix(self.rotation)


class SolutionBatch(NamedTuple):
    """One method's solutions of a batch of J problems, one row each.

    ``errors[j]`` is the exception ``solve`` raises for problem j (a
    ``CalibrationError``, among them the ``ZeroTranslationError`` of a
    vanishing transfer norm and the plain ``CalibrationError`` of a
    non-finite estimate or metric, or the ``ValueError`` of a non-unit
    result), or None; the rows of a failed problem hold no estimate.
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
    """The first error of each problem of a batch, in check order."""

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

    def finish(self, method, q, t, rot_res, tr_res, iterations=None, converged=None):
        """The batch's solutions; a row still ok whose estimate or metric
        is not finite fails with CalibrationError."""
        size = len(q)
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


def _rejected(method: Method, size: int, message: str) -> SolutionBatch:
    """Every problem of a batch failed with TooFewMotionsError."""
    fail = _Failures([TooFewMotionsError(message) for _ in range(size)])
    nan = np.full(size, np.nan)
    return fail.finish(method, np.full((size, 4), np.nan), np.full((size, 3), np.nan), nan, nan)


def _least_squares(a: np.ndarray, b: np.ndarray, what: str, fail: _Failures) -> np.ndarray:
    """Least-squares solution x = V diag(1/s) U' b of each problem's system
    a x = b, from one SVD of the whole batch.

    Its singular values are the condition gate: a problem whose system is
    singular or beyond ``CONDITION_LIMIT`` is recorded as
    IllConditionedError.  Problems that are not ok get NaN.
    """
    u, s, vt = np.linalg.svd(a, full_matrices=False)
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


def _as_unit(q: np.ndarray, fail: _Failures) -> np.ndarray:
    """``quat.as_unit`` of each row, recording its ValueError."""
    err = quat.unit_error(q)
    fail.record(err > quat.UNIT_TOL, lambda j: quat.off_unity(err[j]))
    return quat.canonicalize(q)


def axis_alignment_matrix(constraints: ConstraintSet) -> np.ndarray:
    """4x4 symmetric matrix whose quadratic form over unit quaternions is
    the summed squared axis-alignment error (one per problem of a batch)."""
    vp, v = constraints.camera_axis, constraints.hand_axis
    d = quat.q_matrix(quat.embed(vp)) - quat.w_matrix(quat.embed(v))
    return np.einsum("...nji,...njk->...ik", d, d)


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
    fail = _Failures.none(1)
    rot, tr = _metrics(_one(constraints), solution.rotation[None], solution.translation[None], fail)
    fail.record_non_finite(rotation_residual=rot, translation_residual=tr)
    if fail.errors[0] is not None:
        raise fail.errors[0]
    return float(rot[0]), float(tr[0])


# ---------------------------------------------------------------------------
# symmetric 4x4 eigensolver

def _eigen_sym4(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` of each exactly symmetric 4x4 of a stack:
    eigenvalues ascending and eigenvectors as columns, each signed so its
    largest-magnitude component is positive."""
    vals, vecs = np.linalg.eigh(m)
    lead = np.take_along_axis(vecs, np.argmax(np.abs(vecs), axis=-2)[..., None, :], axis=-2)
    return vals, np.where(lead < 0, -vecs, vecs)


# ---------------------------------------------------------------------------
# decoupled solvers

def _unique_rotation(cs: ConstraintSet, fail: _Failures) -> np.ndarray:
    """The closed-form rotation; IllConditionedError when it is not unique."""
    vals, vecs = _eigen_sym4(axis_alignment_matrix(cs))
    fail.record(
        vals[:, 1] - vals[:, 0] < EIGENVALUE_GAP,
        lambda j: IllConditionedError(
            f"smallest eigenvalues {vals[j, 0]:.3e}, {vals[j, 1]:.3e} nearly coincide; "
            "rotation is not unique"
        ),
    )
    column = np.ascontiguousarray(vecs[:, :, 0])
    return _as_unit(column / quat.vnorm(column)[:, None], fail)


def _translation_ls(cs: ConstraintSet, q: np.ndarray, fail: _Failures) -> np.ndarray:
    r3 = quat.to_rotation_matrix(q)
    a = (cs.camera_rotation - np.eye(3)).reshape(len(q), -1, 3)
    rhs = cs.hand_translation @ np.swapaxes(r3, -1, -2) - cs.camera_translation
    return _least_squares(a, rhs.reshape(len(q), -1), "translation system", fail)


def _tsai_lenz(cs: ConstraintSet) -> SolutionBatch:
    """Linear two-step solver: scaled-axis vector first, translation second.

    The axis equation camera_axis = R(hand_axis) linearizes over the
    scaled-axis unknown g = tan(angle/2) * axis as

        skew(camera_axis + hand_axis) @ g = hand_axis - camera_axis,

    three rows per motion, rank 2 each, so at least two motions with
    distinct axes are required.
    """
    size, n = len(cs.camera_rotation), len(cs)
    if n < 2:
        return _rejected(Method.TSAI_LENZ, size, f"need at least 2 motions, got {n}")
    fail = _Failures.none(size)
    vp, v = cs.camera_axis, cs.hand_axis
    a = _skew(vp + v).reshape(size, -1, 3)
    g = _least_squares(a, (v - vp).reshape(size, -1), "axis system", fail)
    magnitude = quat.vnorm(g)
    identity = magnitude <= 1e-12
    # atan-based angle recovery stays finite for large |g| (angles near pi)
    q = quat.from_axis_angle(
        g / np.where(identity, 1.0, magnitude)[:, None], 2.0 * np.arctan(magnitude)
    )
    q = np.where(identity[:, None], quat.IDENTITY, q)
    t = _translation_ls(cs, q, fail)
    rot_res, tr_res = _metrics(cs, q, t, fail)
    return fail.finish(Method.TSAI_LENZ, _as_unit(q, fail), t, rot_res, tr_res)


def _closed_form(cs: ConstraintSet) -> SolutionBatch:
    """Optimal rotation over unit quaternions, then linear translation.

    The summed squared axis-alignment error is a quadratic form q' A q;
    its constrained minimizer is the eigenvector of A for the smallest
    eigenvalue.  A gap below 1e-9 (``EIGENVALUE_GAP``) between the two
    smallest eigenvalues means the minimizer is not unique (single motion,
    or parallel axes) and the problem is rejected.
    """
    size = len(cs.camera_rotation)
    if len(cs) == 0:
        return _rejected(Method.CLOSED_FORM, size, "need at least 2 motions, got 0")
    fail = _Failures.none(size)
    q = _unique_rotation(cs, fail)
    t = _translation_ls(cs, q, fail)
    rot_res, tr_res = _metrics(cs, q, t, fail)
    return fail.finish(Method.CLOSED_FORM, _as_unit(q, fail), t, rot_res, tr_res)


# ---------------------------------------------------------------------------
# simultaneous nonlinear solver

@dataclass(frozen=True, eq=False)
class QuadraticObjective:
    """Closed quadratic form of the simultaneous objective.

    ``evaluate`` returns

        q' rotation_quad q + t' translation_quad t + translation_linear . t
        + coupling (q_matrix(q)' w_matrix(q)) embed(t)
        + UNIT_PENALTY (1 - q.q)^2

    which matches the directly summed objective at any unit quaternion
    whenever each constraint's camera rotation is the similarity image of
    its hand rotation under q.
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
        sandwich = quat.q_matrix(q).T @ quat.w_matrix(q)
        value = (
            q @ self.rotation_quad @ q
            + t @ self.translation_quad @ t
            + self.translation_linear @ t
            + self.coupling @ sandwich @ quat.embed(t)
            + UNIT_PENALTY * (1.0 - q @ q) ** 2
        )
        return float(value)


def build_quadratic(constraints: ConstraintSet) -> QuadraticObjective:
    """Assemble the constant-size quadratic form of the coupled objective."""
    cs = constraints
    rb, pp, p = cs.hand_rotation, cs.camera_translation, cs.hand_translation
    kmi = cs.camera_rotation - np.eye(3)

    w_p = quat.w_matrix(quat.embed(p))
    q_pp = quat.q_matrix(quat.embed(pp))
    cross = np.einsum("nji,njk->ik", w_p, q_pp)
    rot_quad = axis_alignment_matrix(cs) + (
        float(np.sum(p * p) + np.sum(pp * pp)) * np.eye(4) - cross - cross.T
    )
    return QuadraticObjective(
        rotation_quad=rot_quad,
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



class _LMProblem:
    """Residuals and Jacobian of the 7-parameter problem, for a batch.

    Residual layout per problem: 3 axis-alignment rows per motion, then 3
    translation rows per motion, then the scalar norm penalty.
    Translations are divided by the problem's scale; its translation
    parameter is then in units of that scale.  The Jacobian of the
    sandwich product q * v * conj(q) with respect to q is
    w_matrix(q)' w_matrix(v) + q_matrix(q) q_matrix(v) conj.  The operators
    of v and p are stacked along the motion axis, (J, 2n, 4, 4), and each
    term is one broadcast matmul of the problem's (J, 1, 4, 4) operator of
    q with that stack.  Each 4x4 product is computed on its own, so a row
    of the batch equals the problem's Jacobian taken alone.
    """

    def __init__(self, arrays):
        self.arrays = arrays
        self.vp, self.v, self.kmi, self.pp, self.p, self.w_vp, self.qc_vp = arrays

    @classmethod
    def build(cls, cs: ConstraintSet, scale):
        v = cs.hand_axis
        p = cs.hand_translation / scale[:, None, None]
        vp_embedded = quat.embed(np.concatenate([v, p], axis=1))
        arrays = (
            cs.camera_axis,
            v,
            cs.camera_rotation - np.eye(3),
            cs.camera_translation / scale[:, None, None],
            p,
            quat.w_matrix(vp_embedded),
            quat.q_matrix(vp_embedded) @ _CONJ,
        )
        return cls(arrays)

    def take(self, rows) -> "_LMProblem":
        return _LMProblem(tuple(a[rows] for a in self.arrays))

    def residuals(self, x: np.ndarray) -> np.ndarray:
        size, n = x.shape[0], self.v.shape[1]
        q, t = x[:, :4], x[:, 4:]
        sandwich = np.swapaxes(quat.w_matrix(q), -1, -2) @ quat.q_matrix(q)
        rot_t = np.swapaxes(sandwich[:, 1:, 1:], -1, -2)
        r = np.empty((size, 6 * n + 1))
        r[:, : 3 * n] = (self.vp - self.v @ rot_t).reshape(size, -1)
        moved = self.p @ rot_t - (self.kmi @ t[:, None, :, None])[..., 0] - self.pp
        r[:, 3 * n : 6 * n] = moved.reshape(size, -1)
        r[:, -1] = _PENALTY_ROW * (1.0 - quat.vdot(q, q))
        return r

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        size, n = x.shape[0], self.v.shape[1]
        q = x[:, :4]
        wq_t = np.swapaxes(quat.w_matrix(q), -1, -2)
        qq = quat.q_matrix(q)
        d = wq_t[:, None] @ self.w_vp
        d += qq[:, None] @ self.qc_vp
        jac = np.zeros((size, 6 * n + 1, 7))
        jac[:, : 3 * n, :4] = (-d[:, :n, 1:, :]).reshape(size, -1, 4)
        jac[:, 3 * n : 6 * n, :4] = d[:, n:, 1:, :].reshape(size, -1, 4)
        jac[:, 3 * n : 6 * n, 4:] = (-self.kmi).reshape(size, -1, 3)
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
    size, n = len(cs.camera_rotation), len(cs)
    if n < 2:
        return _rejected(Method.NONLINEAR, size, f"need at least 2 motions, got {n}")
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
    rot_res, tr_res = _metrics(cs, q, t, fail)
    return fail.finish(
        Method.NONLINEAR, _as_unit(q, fail), t, rot_res, tr_res, iterations, converged
    )


def solve(method: Method, constraints: ConstraintSet) -> HandEyeSolution:
    """One problem (n, ...) solved by one method (a ``Method`` or its
    name); raises the problem's error."""
    cs = _one(constraints)
    method = Method(method)
    if method is Method.TSAI_LENZ:
        return _tsai_lenz(cs).solution()
    start = _closed_form(cs)
    return (start if method is Method.CLOSED_FORM else _nonlinear(cs, start)).solution()


def solve_batch(constraints: ConstraintSet) -> dict[Method, SolutionBatch]:
    """All three methods, in ``Method`` order, on a batch of problems
    (J, n, ...).

    The nonlinear solver starts from the closed-form batch, computed once.
    Problem j of each result is bit-identical to ``solve`` on problem j,
    and a problem it would reject is recorded, not raised.
    """
    cs = constraints
    start = _closed_form(cs)
    return {
        Method.TSAI_LENZ: _tsai_lenz(cs),
        Method.CLOSED_FORM: start,
        Method.NONLINEAR: _nonlinear(cs, start),
    }
