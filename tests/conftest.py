"""Shared builders and independent oracles for the test suite.

The oracles here deliberately avoid the package's own code paths:
quaternion products come from the basis multiplication table, rotation
matrices from the Rodrigues formula, so agreement is evidence rather
than tautology.
"""

import numpy as np
import pytest

from handeye.geometry import ConstraintSet, RigidMotion, compose, invert

# Hamilton basis products: entry (a, b) is (sign, index) of e_a * e_b with
# basis order (1, i, j, k).
_BASIS_TABLE = {
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def qmul_oracle(r, q):
    """Quaternion product by expanding over the basis table."""
    out = np.zeros(4)
    for a in range(4):
        for b in range(4):
            sign, idx = _BASIS_TABLE[(a, b)]
            out[idx] += sign * r[a] * q[b]
    return out


def rodrigues(axis, angle):
    """Rotation matrix from axis-angle, independent of the quaternion path."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def random_unit_quaternion(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    return q if q[0] >= 0 else -q


def random_rotation(rng):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return rodrigues(axis, rng.uniform(0.1, np.pi - 0.1))


def random_motion(rng, translation=300.0):
    return RigidMotion(random_rotation(rng), rng.normal(size=3) * translation)


def separated_axes(rng, n, min_separation_deg=15.0):
    """n unit vectors pairwise at least min_separation apart (as lines)."""
    axes = []
    limit = np.cos(np.radians(min_separation_deg))
    while len(axes) < n:
        cand = rng.normal(size=3)
        cand /= np.linalg.norm(cand)
        if all(abs(cand @ a) < limit for a in axes):
            axes.append(cand)
    return axes


def consistent_constraints(rng, truth, n, translation=300.0, angles=(0.35, 1.57)):
    """Noise-free constraint set a ground-truth transform satisfies exactly.

    Camera motions get pairwise-separated rotation axes; the hand motions
    are the exact conjugates under ``truth``.
    """
    truth_inv = invert(truth)
    pairs = []
    for axis in separated_axes(rng, n):
        angle = rng.uniform(*angles)
        camera = RigidMotion(rodrigues(axis, angle), rng.normal(size=3) * translation)
        pairs.append((camera, compose(truth_inv, compose(camera, truth))))
    return constraints_from_pairs(pairs)


def constraints_from_pairs(pairs):
    """Constraint set of (camera motion, hand motion) pairs.

    Axis extraction goes via an eigen route, not the package's quaternion
    route.  Orientation matches the canonical-sign convention: along the
    skew part (positive sin) or, for half-turns, first nonzero component
    positive.
    """
    def unit_axis(m):
        w, v = np.linalg.eig(m)
        axis = np.real(v[:, np.argmin(np.abs(w - 1.0))])
        axis /= np.linalg.norm(axis)
        skew = m - m.T
        s = np.array([skew[2, 1], skew[0, 2], skew[1, 0]])
        if np.linalg.norm(s) > 1e-9:
            if axis @ s < 0:
                axis = -axis
        else:
            for c in axis:
                if abs(c) > 1e-12:
                    if c < 0:
                        axis = -axis
                    break
        return axis

    return constraint_set(
        [
            dict(
                camera_rotation=camera.rotation,
                hand_rotation=hand.rotation,
                camera_axis=unit_axis(camera.rotation),
                hand_axis=unit_axis(hand.rotation),
                camera_translation=camera.translation,
                hand_translation=hand.translation,
            )
            for camera, hand in pairs
        ]
    )


def constraint_set(entries):
    """ConstraintSet of per-motion field mappings, stacked in order; an
    empty list gives the empty set."""
    if not entries:
        rotations, vectors = np.empty((0, 3, 3)), np.empty((0, 3))
        return ConstraintSet(rotations, rotations, vectors, vectors, vectors, vectors)
    return ConstraintSet(**{name: np.stack([e[name] for e in entries]) for name in entries[0]})


def parallel_axis_constraints(rng, truth, n, angle_spread=(0.4, 1.4)):
    """Constraints whose hand rotations share one axis line (degenerate)."""
    truth_inv = invert(truth)
    base = rng.normal(size=3)
    base /= np.linalg.norm(base)
    pairs = []
    for i in range(n):
        axis = base if i % 2 == 0 else -base
        camera = RigidMotion(
            rodrigues(axis, rng.uniform(*angle_spread)), rng.normal(size=3) * 200.0
        )
        pairs.append((camera, compose(truth_inv, compose(camera, truth))))
    return constraints_from_pairs(pairs)


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)
