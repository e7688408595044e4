"""Three hand-eye solvers over a shared constraint set.

Every solver stacks its ``MotionConstraint`` records once into a
``ConstraintSet`` (or takes one as given) and estimates the same unknown:
the rotation (as a unit quaternion) and translation (mm) of the hand-eye
transform.  They differ in how much they decouple:

* ``solve_tsai_lenz`` linearizes the axis equation with the scaled-axis
  vector tan(angle/2) * axis, solves it by least squares, then solves the
  translation equation by least squares.
* ``solve_closed_form`` minimizes the axis-alignment error over unit
  quaternions exactly, as the eigenvector of a 4x4 symmetric matrix for
  its smallest eigenvalue (``np.linalg.eigh``), then solves translation
  the same way.
* ``solve_nonlinear`` minimizes the full coupled objective (axis alignment
  plus translation transfer plus a soft unit-norm penalty) over all seven
  parameters simultaneously with Levenberg-Marquardt, starting from the
  closed-form solution.

``build_quadratic`` assembles the closed quadratic form of the coupled
objective whose term count does not grow with the number of motions; it is
kept as an independent cross-check of the objective the optimizer descends.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import quaternion as quat
from .errors import (
    IllConditionedError,
    NotSymmetricError,
    TooFewMotionsError,
)
from .geometry import ConstraintSet

# Shared threshold: a stacked linear system with a larger spectral condition
# number is treated as rank-deficient.
CONDITION_LIMIT = 1e8

# Eigenvalue gap below which the minimizing quaternion is not unique.
EIGENVALUE_GAP = 1e-9

# Published defaults for the simultaneous objective.
DEFAULT_AXIS_WEIGHT = 1.0
DEFAULT_TRANSFER_WEIGHT = 1.0
DEFAULT_UNIT_PENALTY = 2.0e6

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


def _check_condition(a: np.ndarray, what: str):
    svals = np.linalg.svd(a, compute_uv=False)
    if svals[-1] <= 0.0 or svals[0] / svals[-1] > CONDITION_LIMIT:
        raise IllConditionedError(
            f"{what}: condition number "
            f"{'inf' if svals[-1] <= 0 else f'{svals[0] / svals[-1]:.2e}'} "
            f"exceeds {CONDITION_LIMIT:.0e}"
        )


def _skew(v: np.ndarray) -> np.ndarray:
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def axis_alignment_matrix(constraints) -> np.ndarray:
    """4x4 symmetric matrix whose quadratic form over unit quaternions is
    the summed squared axis-alignment error."""
    cs = ConstraintSet.of(constraints)
    vp, v = cs.camera_axis, cs.hand_axis
    d = quat.q_matrix(quat.embed(vp)) - quat.w_matrix(quat.embed(v))
    return np.einsum("nji,njk->ik", d, d)


def _metrics(cs: ConstraintSet, q: np.ndarray, t: np.ndarray) -> tuple[float, float]:
    k, rb = cs.camera_rotation, cs.hand_rotation
    pp, p = cs.camera_translation, cs.hand_translation
    r3 = quat.to_rotation_matrix(q)
    rot = float(np.sum((k @ r3 - r3 @ rb) ** 2))
    transfer = p @ r3.T - pp                      # what the translation must explain
    mismatch = (k - np.eye(3)) @ t - transfer
    denom = float(np.sum(transfer**2))
    if denom == 0.0:
        raise ZeroDivisionError("translation-transfer norm is zero; relative error undefined")
    return rot, float(np.sum(mismatch**2)) / denom


def report_residuals(constraints, solution: HandEyeSolution) -> tuple[float, float]:
    """The two table metrics of a solution on a constraint set.

    Returns (summed squared rotation-equation error, relative summed
    squared translation-equation error).  Raises ZeroDivisionError when
    the translation-transfer norm vanishes.
    """
    return _metrics(ConstraintSet.of(constraints), solution.rotation, solution.translation)


# ---------------------------------------------------------------------------
# symmetric 4x4 eigensolver

def eigen_sym4(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a symmetric 4x4 matrix by ``np.linalg.eigh``.

    Returns (eigenvalues ascending, eigenvectors as columns).  Eigenvector
    signs are fixed so the largest-magnitude component is positive.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (4, 4):
        raise NotSymmetricError(f"expected 4x4 matrix, got {m.shape}")
    if np.linalg.norm(m - m.T) > 1e-9:
        raise NotSymmetricError("matrix is not symmetric")
    vals, vecs = np.linalg.eigh(0.5 * (m + m.T))
    lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(4)]
    return vals, np.where(lead < 0, -vecs, vecs)


# ---------------------------------------------------------------------------
# decoupled solvers

def _translation_system(cs: ConstraintSet) -> np.ndarray:
    a = (cs.camera_rotation - np.eye(3)).reshape(-1, 3)
    _check_condition(a, "translation system")
    return a


def _unique_rotation(cs: ConstraintSet) -> np.ndarray:
    """The closed-form rotation; IllConditionedError when it is not unique."""
    vals, vecs = eigen_sym4(axis_alignment_matrix(cs))
    if vals[1] - vals[0] < EIGENVALUE_GAP:
        raise IllConditionedError(
            f"smallest eigenvalues {vals[0]:.3e}, {vals[1]:.3e} nearly coincide; "
            "rotation is not unique"
        )
    return quat.as_unit(vecs[:, 0] / np.linalg.norm(vecs[:, 0]))


def solve_translation_ls(constraints, rotation) -> np.ndarray:
    """Least-squares translation at a fixed rotation.

    Stacks the translation equation of every constraint and solves the
    3n x 3 system; raises IllConditionedError when the stack is closer to
    rank-deficient than the shared condition limit (a single motion or
    motions sharing a rotation axis leave one direction unobservable).
    """
    cs = ConstraintSet.of(constraints)
    r3 = quat.to_rotation_matrix(np.asarray(rotation, dtype=float))
    a = _translation_system(cs)
    rhs = (cs.hand_translation @ r3.T - cs.camera_translation).reshape(-1)
    t, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    return t


def solve_tsai_lenz(constraints) -> HandEyeSolution:
    """Linear two-step solver: scaled-axis vector first, translation second.

    The axis equation camera_axis = R(hand_axis) linearizes over the
    scaled-axis unknown g = tan(angle/2) * axis as

        skew(camera_axis + hand_axis) @ g = hand_axis - camera_axis,

    three rows per motion, rank 2 each, so at least two motions with
    distinct axes are required.
    """
    cs = ConstraintSet.of(constraints)
    if len(cs) < 2:
        raise TooFewMotionsError(f"need at least 2 motions, got {len(cs)}")
    vp, v = cs.camera_axis, cs.hand_axis
    a = np.concatenate([_skew(row) for row in vp + v], axis=0)
    _check_condition(a, "axis system")
    rhs = (v - vp).reshape(-1)
    g, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    magnitude = np.linalg.norm(g)
    if magnitude <= 1e-12:
        q = quat.IDENTITY
    else:
        # atan-based angle recovery stays finite for large |g| (angles near pi)
        q = quat.from_axis_angle(g / magnitude, 2.0 * np.arctan(magnitude))
    t = solve_translation_ls(cs, q)
    rot_res, tr_res = _metrics(cs, q, t)
    return HandEyeSolution(q, t, rot_res, tr_res, Method.TSAI_LENZ)


def solve_closed_form(constraints) -> HandEyeSolution:
    """Optimal rotation over unit quaternions, then linear translation.

    The summed squared axis-alignment error is a quadratic form q' A q;
    its constrained minimizer is the eigenvector of A for the smallest
    eigenvalue.  A gap below 1e-9 between the two smallest eigenvalues
    means the minimizer is not unique (single motion, or parallel axes)
    and the problem is rejected.
    """
    cs = ConstraintSet.of(constraints)
    if not cs:
        raise TooFewMotionsError("need at least 2 motions, got 0")
    q = _unique_rotation(cs)
    t = solve_translation_ls(cs, q)
    rot_res, tr_res = _metrics(cs, q, t)
    return HandEyeSolution(q, t, rot_res, tr_res, Method.CLOSED_FORM)


# ---------------------------------------------------------------------------
# simultaneous nonlinear solver

@dataclass(frozen=True, eq=False)
class QuadraticObjective:
    """Closed quadratic form of the simultaneous objective.

    ``evaluate`` returns

        q' rotation_quad q + t' translation_quad t + translation_linear . t
        + coupling (q_matrix(q)' w_matrix(q)) embed(t)
        + unit_penalty (1 - q.q)^2

    which matches the directly summed objective at any unit quaternion
    whenever each constraint's camera rotation is the similarity image of
    its hand rotation under q. Weights are already folded into the
    coefficient blocks.
    """

    rotation_quad: np.ndarray      # 4x4 symmetric
    translation_quad: np.ndarray   # 3x3
    translation_linear: np.ndarray  # (3,)
    coupling: np.ndarray           # (4,), purely imaginary row
    unit_penalty: float
    weights: tuple[float, float]

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
            + self.unit_penalty * (1.0 - q @ q) ** 2
        )
        return float(value)


def build_quadratic(
    constraints,
    axis_weight: float = DEFAULT_AXIS_WEIGHT,
    transfer_weight: float = DEFAULT_TRANSFER_WEIGHT,
    unit_penalty: float = DEFAULT_UNIT_PENALTY,
) -> QuadraticObjective:
    """Assemble the constant-size quadratic form of the coupled objective."""
    cs = ConstraintSet.of(constraints)
    rb, pp, p = cs.hand_rotation, cs.camera_translation, cs.hand_translation
    kmi = cs.camera_rotation - np.eye(3)

    rot_quad = axis_weight * axis_alignment_matrix(cs)
    w_p = quat.w_matrix(quat.embed(p))
    q_pp = quat.q_matrix(quat.embed(pp))
    cross = np.einsum("nji,njk->ik", w_p, q_pp)
    rot_quad = rot_quad + transfer_weight * (
        float(np.sum(p * p) + np.sum(pp * pp)) * np.eye(4) - cross - cross.T
    )
    trans_quad = transfer_weight * np.einsum("nji,njk->ik", kmi, kmi)
    trans_lin = transfer_weight * 2.0 * np.einsum("ni,nij->j", pp, kmi)
    coupling = transfer_weight * (-2.0) * np.einsum(
        "ni,nij->j", p, rb - np.eye(3)
    )
    return QuadraticObjective(
        rotation_quad=rot_quad,
        translation_quad=trans_quad,
        translation_linear=trans_lin,
        coupling=quat.embed(coupling),
        unit_penalty=unit_penalty,
        weights=(axis_weight, transfer_weight),
    )


def objective_value(
    constraints,
    q,
    t,
    axis_weight: float = DEFAULT_AXIS_WEIGHT,
    transfer_weight: float = DEFAULT_TRANSFER_WEIGHT,
    unit_penalty: float = DEFAULT_UNIT_PENALTY,
) -> float:
    """Directly summed simultaneous objective (no quadratic shortcut)."""
    cs = ConstraintSet.of(constraints)
    k, vp, v = cs.camera_rotation, cs.camera_axis, cs.hand_axis
    pp, p = cs.camera_translation, cs.hand_translation
    q = np.asarray(q, dtype=float)
    t = np.asarray(t, dtype=float)
    rotated_v = quat.rotate_vector(q, v)
    rotated_p = quat.rotate_vector(q, p)
    f1 = float(np.sum((vp - rotated_v) ** 2))
    f2 = float(np.sum((rotated_p - (k - np.eye(3)) @ t - pp) ** 2))
    penalty = unit_penalty * (1.0 - float(q @ q)) ** 2
    return axis_weight * f1 + transfer_weight * f2 + penalty


def _lm_problem(cs: ConstraintSet, axis_weight, transfer_weight, unit_penalty, scale=1.0):
    """Residual and Jacobian closures for the 7-parameter problem.

    Residual layout: 3 axis-alignment rows per motion, then 3 translation
    rows per motion, then the scalar norm penalty.  Translations are
    divided by ``scale``; the translation parameter is then in units of
    ``scale`` mm.  The Jacobian of the sandwich product q * v * conj(q)
    with respect to q is w_matrix(q)' w_matrix(v) + q_matrix(q)
    q_matrix(v) conj, which the closures evaluate batched over motions.
    """
    vp, v = cs.camera_axis, cs.hand_axis
    n = len(cs)
    kmi = cs.camera_rotation - np.eye(3)
    pp = cs.camera_translation / scale
    p = cs.hand_translation / scale
    sa = np.sqrt(axis_weight)
    sb = np.sqrt(transfer_weight)
    sp = np.sqrt(unit_penalty)
    w_v = quat.w_matrix(quat.embed(v))
    qc_v = quat.q_matrix(quat.embed(v)) @ _CONJ
    w_p = quat.w_matrix(quat.embed(p))
    qc_p = quat.q_matrix(quat.embed(p)) @ _CONJ

    def residuals(x):
        q, t = x[:4], x[4:]
        sandwich = quat.w_matrix(q).T @ quat.q_matrix(q)
        rot = sandwich[1:, 1:]
        r = np.empty(6 * n + 1)
        r[: 3 * n] = (sa * (vp - v @ rot.T)).reshape(-1)
        r[3 * n : 6 * n] = (sb * (p @ rot.T - kmi @ t - pp)).reshape(-1)
        r[-1] = sp * (1.0 - q @ q)
        return r

    def jacobian(x):
        q = x[:4]
        wq_t = quat.w_matrix(q).T
        qq = quat.q_matrix(q)
        dv = np.einsum("ab,nbc->nac", wq_t, w_v) + np.einsum("ab,nbc->nac", qq, qc_v)
        dp = np.einsum("ab,nbc->nac", wq_t, w_p) + np.einsum("ab,nbc->nac", qq, qc_p)
        jac = np.zeros((6 * n + 1, 7))
        jac[: 3 * n, :4] = (-sa * dv[:, 1:, :]).reshape(-1, 4)
        jac[3 * n : 6 * n, :4] = (sb * dp[:, 1:, :]).reshape(-1, 4)
        jac[3 * n : 6 * n, 4:] = (-sb * kmi).reshape(-1, 3)
        jac[-1, :4] = -2.0 * sp * q
        return jac

    return residuals, jacobian


def translation_span(constraints) -> float:
    """RMS motion-translation magnitude of a constraint set, mm."""
    cs = ConstraintSet.of(constraints)
    pp, p = cs.camera_translation, cs.hand_translation
    return float(np.sqrt(0.5 * np.mean(np.sum(pp**2, axis=1) + np.sum(p**2, axis=1))))


def solve_nonlinear(
    constraints,
    init: HandEyeSolution | None = None,
    axis_weight: float = DEFAULT_AXIS_WEIGHT,
    transfer_weight: float = DEFAULT_TRANSFER_WEIGHT,
    unit_penalty: float = DEFAULT_UNIT_PENALTY,
    max_iterations: int = 200,
    translation_scale: float | None = None,
) -> HandEyeSolution:
    """Simultaneous rotation-translation estimate by Levenberg-Marquardt.

    Minimizes the coupled objective over 4 quaternion + 3 translation
    parameters with an analytic Jacobian.  Damping starts at 1e-3 times
    the largest diagonal of J'J and is multiplied by 10 on a rejected
    step, divided by 10 on an accepted one.  Converged when the step norm
    drops below 1e-12 or the relative objective decrease below 1e-14,
    capped at ``max_iterations``.

    With the default unit weights, millimetre translations would make the
    translation term drown out the axis term by several orders of
    magnitude and actually degrade the rotation estimate.  The objective
    is therefore evaluated with translations divided by
    ``translation_scale``, which defaults to the RMS motion-translation
    magnitude of the constraint set; the two terms then carry comparable
    weight and the simultaneous estimate dominates the decoupled ones.
    Pass ``translation_scale=1.0`` for the raw objective.

    Degenerate constraint sets (non-unique rotation, or a translation
    stack beyond the condition limit) are rejected up front by the
    closed-form solver's checks, which also run when ``init`` is given:
    an optimum along a flat direction would be an arbitrary answer, not
    an estimate.

    Args:
        constraints: at least two motions.
        init: starting point; defaults to the closed-form solution.

    Returns:
        Solution with ``iterations`` set; ``converged`` is False when the
        cap was reached with a gradient norm above 1e-6 (the best iterate
        is still returned).
    """
    cs = ConstraintSet.of(constraints)
    if len(cs) < 2:
        raise TooFewMotionsError(f"need at least 2 motions, got {len(cs)}")
    if init is None:
        init = solve_closed_form(cs)
    else:
        _unique_rotation(cs)
        _translation_system(cs)

    if translation_scale is None:
        translation_scale = translation_span(cs)
    if translation_scale <= 0.0:
        translation_scale = 1.0
    residuals, jacobian = _lm_problem(
        cs, axis_weight, transfer_weight, unit_penalty, translation_scale
    )
    x = np.concatenate([init.rotation, init.translation / translation_scale])
    r = residuals(x)
    cost = float(r @ r)
    eye7 = np.eye(7)

    iterations = 0
    converged = cost == 0.0
    mu = None
    need_update = True
    jtj = grad = None
    while not converged and iterations < max_iterations:
        if need_update:
            jac = jacobian(x)
            grad = jac.T @ r
            jtj = jac.T @ jac
            if mu is None:
                mu = 1e-3 * float(np.max(np.diag(jtj)))
            need_update = False
        iterations += 1
        step = np.linalg.solve(jtj + mu * eye7, -grad)
        x_new = x + step
        r_new = residuals(x_new)
        cost_new = float(r_new @ r_new)
        if cost_new <= cost:
            decrease = cost - cost_new
            x, r, cost = x_new, r_new, cost_new
            mu *= 0.1
            need_update = True
            if np.linalg.norm(step) < 1e-12 or decrease < 1e-14 * max(cost, 1e-300):
                converged = True
        else:
            mu *= 10.0
            if mu > 1e64:
                break

    if not converged:
        grad = 2.0 * jacobian(x).T @ residuals(x)
        converged = float(np.linalg.norm(grad)) <= 1e-6

    q = x[:4] / np.linalg.norm(x[:4])
    t = x[4:] * translation_scale
    rot_res, tr_res = _metrics(cs, q, t)
    return HandEyeSolution(
        quat.as_unit(q), t, rot_res, tr_res, Method.NONLINEAR,
        iterations=iterations, converged=converged,
    )


SOLVERS = {
    Method.TSAI_LENZ: solve_tsai_lenz,
    Method.CLOSED_FORM: solve_closed_form,
    Method.NONLINEAR: solve_nonlinear,
}


def solve(method: Method, constraints) -> HandEyeSolution:
    return SOLVERS[Method(method)](constraints)
