import numpy as np
import pytest

from handeye import quaternion as quat
from handeye.errors import NotARotationError

from conftest import qmul_oracle, random_unit_quaternion, rodrigues

ATOL = 1e-12


def test_q_matrix_of_unity_is_identity():
    assert np.array_equal(quat.q_matrix(quat.IDENTITY), np.eye(4))


def test_w_matrix_of_unity_is_identity():
    assert np.array_equal(quat.w_matrix(quat.IDENTITY), np.eye(4))


def test_q_matrix_column_orthogonality():
    r = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.allclose(quat.q_matrix(r).T @ quat.q_matrix(r), 30.0 * np.eye(4), atol=ATOL)


def test_q_matrix_product_i_times_j_is_k():
    # i * j = k, expanded by hand from the basis rules
    r = np.array([0.0, 1.0, 0.0, 0.0])
    q = np.array([0.0, 0.0, 1.0, 0.0])
    assert np.allclose(quat.q_matrix(r) @ q, [0.0, 0.0, 0.0, 1.0], atol=ATOL)


def test_w_matrix_skew_symmetric_for_pure_quaternion():
    w = quat.w_matrix(np.array([0.0, 1.0, 2.0, 3.0]))
    assert np.allclose(w + w.T, np.zeros((4, 4)), atol=ATOL)


def test_q_matrix_skew_symmetric_for_pure_quaternion():
    q = quat.q_matrix(np.array([0.0, -1.0, 0.5, 2.0]))
    assert np.allclose(q + q.T, np.zeros((4, 4)), atol=ATOL)


def test_operators_agree_with_basis_table_oracle(rng):
    for _ in range(200):
        r = rng.normal(size=4)
        q = rng.normal(size=4)
        expected = qmul_oracle(r, q)
        assert np.allclose(quat.qmul(r, q), expected, atol=ATOL)
        assert np.allclose(quat.q_matrix(r) @ q, expected, atol=ATOL)
        assert np.allclose(quat.w_matrix(q) @ r, expected, atol=ATOL)


def test_qmul_identity():
    q = np.array([0.3, -0.5, 0.7, 0.1])
    assert np.allclose(quat.qmul(quat.IDENTITY, q), q, atol=ATOL)


def test_qmul_with_conjugate_gives_squared_norm():
    q = np.array([1.0, 2.0, -1.0, 0.5])
    prod = quat.qmul(q, quat.conjugate(q))
    assert np.allclose(prod, [quat.norm2(q), 0.0, 0.0, 0.0], atol=ATOL)


def test_product_norm_multiplies():
    # |r|^2 = 2, |q|^2 = 2, so the product norm squared is 4
    r = np.array([1.0, 1.0, 0.0, 0.0])
    q = np.array([0.0, 0.0, 1.0, 1.0])
    assert quat.norm2(quat.qmul(r, q)) == pytest.approx(4.0, abs=ATOL)


def test_product_norm_multiplies_randomly(rng):
    for _ in range(100):
        r = rng.normal(size=4)
        q = rng.normal(size=4)
        lhs = quat.norm2(quat.qmul(r, q))
        rhs = quat.norm2(r) * quat.norm2(q)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_conjugate_and_dot():
    assert np.array_equal(quat.conjugate(np.array([1.0, 2, 3, 4])), [1, -2, -3, -4])
    q = np.array([0.5, 1.5, -2.0, 3.0])
    assert quat.vdot(q, q) == pytest.approx(quat.norm2(q), abs=ATOL)
    assert quat.vdot(np.array([1.0, 0, 0, 0]), np.array([0.0, 1, 0, 0])) == 0.0


def test_rotate_vector_identity():
    v = np.array([0.2, -0.4, 0.9])
    assert np.allclose(quat.rotate_vector(quat.IDENTITY, v), v, atol=ATOL)


def test_rotate_vector_quarter_turn_about_x():
    q = np.array([np.sqrt(0.5), np.sqrt(0.5), 0.0, 0.0])
    assert np.allclose(quat.rotate_vector(q, [0.0, 1.0, 0.0]), [0.0, 0.0, 1.0], atol=ATOL)


def test_rotate_vector_preserves_norm_and_matches_rodrigues(rng):
    for _ in range(200):
        q = random_unit_quaternion(rng)
        v = rng.normal(size=3)
        rotated = quat.rotate_vector(q, v)
        assert np.linalg.norm(rotated) == pytest.approx(np.linalg.norm(v), rel=1e-12)
        axis, angle = quat.axis_angle(q)
        assert np.allclose(rotated, rodrigues(axis, angle) @ v, atol=1e-10)


def test_rotate_vector_real_part_vanishes(rng):
    for _ in range(100):
        q = random_unit_quaternion(rng)
        v = rng.normal(size=3)
        sandwich = quat.qmul(quat.qmul(q, quat.embed(v)), quat.conjugate(q))
        assert abs(sandwich[0]) <= 1e-12 * max(1.0, np.linalg.norm(v))


def test_to_rotation_matrix_identity_and_half_turn():
    assert np.allclose(quat.to_rotation_matrix(quat.IDENTITY), np.eye(3), atol=ATOL)
    assert np.allclose(
        quat.to_rotation_matrix(np.array([0.0, 1.0, 0.0, 0.0])),
        np.diag([1.0, -1.0, -1.0]),
        atol=ATOL,
    )


def test_to_rotation_matrix_is_orthonormal(rng):
    for _ in range(200):
        m = quat.to_rotation_matrix(random_unit_quaternion(rng))
        assert np.allclose(m.T @ m, np.eye(3), atol=ATOL)
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-12)


def test_to_rotation_matrix_agrees_with_rotate_vector(rng):
    for _ in range(100):
        q = random_unit_quaternion(rng)
        m = quat.to_rotation_matrix(q)
        for basis in np.eye(3):
            assert np.allclose(m @ basis, quat.rotate_vector(q, basis), atol=ATOL)


def test_from_rotation_matrix_identity_and_half_turn():
    assert np.allclose(quat.from_rotation_matrix(np.eye(3)), quat.IDENTITY, atol=ATOL)
    assert np.allclose(
        quat.from_rotation_matrix(np.diag([1.0, -1.0, -1.0])),
        [0.0, 1.0, 0.0, 0.0],
        atol=ATOL,
    )


def test_from_rotation_matrix_round_trip(rng):
    for _ in range(1000):
        q = random_unit_quaternion(rng)
        q = quat.canonicalize(q)
        m = quat.to_rotation_matrix(q)
        back = quat.from_rotation_matrix(m)
        assert np.allclose(back, q, atol=1e-10)
        assert np.allclose(quat.to_rotation_matrix(back), m, atol=1e-10)


def test_from_rotation_matrix_rejects_non_rotation():
    with pytest.raises(NotARotationError):
        quat.from_rotation_matrix(1.5 * np.eye(3))
    with pytest.raises(NotARotationError):
        quat.from_rotation_matrix(np.diag([1.0, 1.0, -1.0]))  # reflection
    with pytest.raises(NotARotationError):
        quat.from_rotation_matrix(np.full((3, 3), np.nan))


def test_operator_identities(rng):
    for _ in range(200):
        r = rng.normal(size=4)
        q = rng.normal(size=4)
        qr, wr = quat.q_matrix(r), quat.w_matrix(r)
        qq, wq = quat.q_matrix(q), quat.w_matrix(q)
        nr = quat.norm2(r)
        assert np.allclose(qr.T @ qr, nr * np.eye(4), atol=1e-11)
        assert np.allclose(wr @ wr.T, nr * np.eye(4), atol=1e-11)
        assert np.allclose(qr @ q, wq @ r, atol=1e-11)
        assert np.allclose(qr.T @ r, nr * quat.IDENTITY, atol=1e-11)
        assert np.allclose(wr.T @ r, nr * quat.IDENTITY, atol=1e-11)
        assert np.allclose(qr @ qq, quat.q_matrix(qr @ q), atol=1e-11)
        assert np.allclose(wr @ wq, quat.w_matrix(wr @ q), atol=1e-11)
        assert np.allclose(qr @ wq.T, wq.T @ qr, atol=1e-11)


def test_canonical_sign_rules():
    assert quat.canonicalize(np.array([-0.5, 0.5, 0.5, 0.5]))[0] == 0.5
    flipped = quat.canonicalize(np.array([0.0, -1.0, 0.0, 0.0]))
    assert np.array_equal(flipped, [0.0, 1.0, 0.0, 0.0])
    kept = quat.canonicalize(np.array([0.0, 0.0, -0.0, 1.0]))
    assert kept[3] == 1.0


def test_as_unit_rejects_off_norm():
    with pytest.raises(ValueError):
        quat.as_unit(np.array([1.0, 0.0, 0.0, 1e-5]))
    q = quat.as_unit(np.array([-1.0, 0.0, 0.0, 0.0]))
    assert np.array_equal(q, quat.IDENTITY)


@pytest.mark.parametrize(
    "q", [[np.nan, 0.0, 0.0, 0.0], [[1.0, 0.0, 0.0, 0.0], [0.0, np.nan, 0.0, 1.0]]]
)
def test_as_unit_rejects_nan(q):
    # NaN compares false with the tolerance, so it must fail the check, not pass it
    with pytest.raises(ValueError, match="norm off unity by nan"):
        quat.as_unit(np.array(q))


def test_axis_angle_round_trip(rng):
    for _ in range(100):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(1e-3, np.pi - 1e-3)
        q = quat.from_axis_angle(axis, angle)
        got_axis, got_angle = quat.axis_angle(q)
        assert got_angle == pytest.approx(angle, abs=1e-12)
        assert np.allclose(got_axis, axis, atol=1e-12)


def test_helpers_broadcast_bit_identically(rng):
    # a stack gives exactly the per-entry results, on every branch of
    # from_rotation_matrix (generic rotations, the identity, half-turns)
    mats = [quat.to_rotation_matrix(random_unit_quaternion(rng)) for _ in range(300)]
    mats += [np.eye(3), np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0]),
             np.diag([-1.0, -1.0, 1.0])]
    batch = quat.from_rotation_matrix(np.stack(mats))
    assert np.array_equal(batch, np.stack([quat.from_rotation_matrix(m) for m in mats]))
    axes, angles = quat.axis_angle(batch)
    singles = [quat.axis_angle(q) for q in batch]
    assert np.array_equal(axes, np.stack([axis for axis, _ in singles]))
    assert np.array_equal(angles, np.array([angle for _, angle in singles]))
    rebuilt = quat.from_axis_angle(axes, angles)
    assert np.array_equal(rebuilt, np.stack([quat.from_axis_angle(a, t) for a, t in zip(axes, angles)]))
    signed = np.concatenate([batch, -batch, [[0.0, 0.0, -1.0, 0.0], [0.0, -0.0, 0.0, 0.0]]])
    assert np.array_equal(quat.canonicalize(signed), np.stack([quat.canonicalize(q) for q in signed]))
    assert np.array_equal(quat.as_unit(batch), batch)
