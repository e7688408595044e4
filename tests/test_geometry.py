import numpy as np
import pytest

import handeye.geometry as geo
from handeye.errors import (
    DegenerateRotationError,
    DegenerateViewError,
    NotARotationError,
    PointAtInfinityError,
    SingularProjectionError,
    TooFewPosesError,
)
from handeye.geometry import (
    ConstraintSet,
    Intrinsics,
    PerspectiveMatrix,
    RigidMotion,
    classical_constraints,
    compose,
    invert,
    line_of_sight,
    orthonormalize,
    perspective_constraints,
    project_point,
    rotation_angle,
    rotation_axis,
)

from conftest import random_motion, random_rotation, rodrigues


def _one_pair(camera, hand):
    """Constraint set of one (camera motion, hand motion) pair."""
    return ConstraintSet.from_motions(
        camera.rotation[None], camera.translation[None], hand.rotation[None], hand.translation[None]
    )


def _stack(motions):
    return np.stack([m.matrix for m in motions])


def _motions_of_two_positions(camera_poses, hand_poses):
    """(camera motion, hand motion) of the constraint two positions give."""
    cs = classical_constraints(_stack(camera_poses), _stack(hand_poses))
    assert len(cs) == 1
    return (
        RigidMotion(cs.camera_rotation[0], cs.camera_translation[0]),
        RigidMotion(cs.hand_rotation[0], cs.hand_translation[0]),
    )


def test_rigid_motion_rejects_bad_rotation():
    with pytest.raises(NotARotationError):
        RigidMotion(np.eye(3) * 1.001, np.zeros(3))


def test_non_finite_entries_rejected(rng):
    with pytest.raises(NotARotationError):
        RigidMotion(np.full((3, 3), np.nan), np.zeros(3))
    with pytest.raises(ValueError):
        RigidMotion(np.eye(3), np.array([0.0, np.nan, 0.0]))
    # from_motions checks every rotation and translation of a stack
    camera, hand = random_motion(rng), random_motion(rng)
    motions = dict(
        camera_rotation=np.stack([camera.rotation, hand.rotation]),
        camera_translation=np.stack([camera.translation, hand.translation]),
        hand_rotation=np.stack([hand.rotation, camera.rotation]),
        hand_translation=np.stack([hand.translation, camera.translation]),
    )
    for name, value in motions.items():
        for bad in (np.nan, np.inf):
            broken = value.copy()
            broken[1].flat[1] = bad
            error = NotARotationError if name.endswith("rotation") else ValueError
            with pytest.raises(error):
                ConstraintSet.from_motions(**dict(motions, **{name: broken}))


def test_compose_invert_basics(rng):
    identity = RigidMotion.identity()
    b = random_motion(rng)
    composed = compose(identity, b)
    assert np.allclose(composed.matrix, b.matrix, atol=1e-12)
    assert np.allclose(invert(identity).matrix, np.eye(4), atol=1e-15)
    for _ in range(50):
        a = random_motion(rng)
        round_trip = compose(invert(a), a)
        assert np.allclose(round_trip.matrix, np.eye(4), atol=1e-9)


def test_homogeneous_round_trip(rng):
    a = random_motion(rng)
    again = RigidMotion.from_matrix(a.matrix)
    assert np.allclose(again.matrix, a.matrix, atol=1e-15)
    bad = a.matrix.copy()
    bad[3, 1] = 1e-6
    with pytest.raises(ValueError):
        RigidMotion.from_matrix(bad)


def test_classical_constraints_camera_motion_pairing(rng):
    # camera motion pose2 o pose1^-1; two equal poses are rejected as
    # degenerate (test_classical_constraints_errors)
    hands = [random_motion(rng), random_motion(rng)]
    t = random_motion(rng)
    camera, _ = _motions_of_two_positions([RigidMotion.identity(), t], hands)
    assert np.allclose(camera.matrix, t.matrix, atol=1e-12)
    for _ in range(20):
        a1, a2 = random_motion(rng), random_motion(rng)
        camera, _ = _motions_of_two_positions([a1, a2], hands)
        # motion applied after the first pose reproduces the second
        assert np.allclose(compose(camera, a1).matrix, a2.matrix, atol=1e-8)


def test_classical_constraints_hand_motion_pairing(rng):
    # hand motion pose2^-1 o pose1
    cameras = [random_motion(rng), random_motion(rng)]
    t = random_motion(rng)
    _, hand = _motions_of_two_positions(cameras, [RigidMotion.identity(), t])
    assert np.allclose(hand.matrix, invert(t).matrix, atol=1e-12)
    for _ in range(20):
        b1, b2 = random_motion(rng), random_motion(rng)
        _, hand = _motions_of_two_positions(cameras, [b1, b2])
        assert np.allclose(compose(b2, hand).matrix, b1.matrix, atol=1e-8)


def test_orthonormalize_basics(rng):
    assert np.allclose(orthonormalize(np.eye(3)), np.eye(3), atol=1e-15)
    assert np.allclose(orthonormalize(1.1 * np.eye(3)), np.eye(3), atol=1e-12)
    for _ in range(100):
        r = random_rotation(rng)
        e = rng.normal(size=(3, 3))
        e /= np.linalg.norm(e)
        projected = orthonormalize(r + 0.01 * e)
        assert np.linalg.norm(projected - r) < 0.03
        assert np.allclose(projected.T @ projected, np.eye(3), atol=1e-12)
    with pytest.raises(NotARotationError):
        orthonormalize(np.eye(3) + 0.8 * np.ones((3, 3)))


def test_rotation_axis_simple_cases():
    r = rodrigues([0.0, 0.0, 1.0], np.radians(30))
    assert np.allclose(rotation_axis(r), [0.0, 0.0, 1.0], atol=1e-12)
    assert np.allclose(rotation_axis(np.diag([1.0, -1.0, -1.0])), [1.0, 0.0, 0.0], atol=1e-12)


def test_rotation_axis_is_fixed_vector(rng):
    for _ in range(1000):
        r = random_rotation(rng)
        axis = rotation_axis(r)
        assert np.allclose(r @ axis, axis, atol=1e-9)
        assert np.linalg.norm(axis) == pytest.approx(1.0, abs=1e-12)


def test_rotation_axis_rejects_near_identity(rng):
    with pytest.raises(DegenerateRotationError) as err:
        rotation_axis(np.eye(3))
    assert err.value.index is None
    with pytest.raises(DegenerateRotationError):
        rotation_axis(rodrigues([1.0, 0.0, 0.0], 1e-8))
    # a stack reports its first degenerate entry
    good = [random_rotation(rng) for _ in range(3)]
    stack = np.stack([good[0], good[1], np.eye(3), good[2], np.eye(3)])
    assert np.array_equal(rotation_axis(stack[:2]), np.stack([rotation_axis(r) for r in good[:2]]))
    with pytest.raises(DegenerateRotationError) as err:
        rotation_axis(stack)
    assert err.value.index == 2
    # entry 2 of the stack is the camera side of pair 1
    translations = np.zeros((2, 3))
    with pytest.raises(DegenerateRotationError) as err:
        geo.ConstraintSet.from_motions(stack[[0, 2]], translations, stack[[1, 3]], translations)
    assert err.value.index == 1


def _reduced(m1, m2):
    """Reduced motion of two 3x4 matrices (the second may be a stack)."""
    return RigidMotion(*geo._reduced(m1, m2))


def test_reduced_motion_same_matrix_gives_identity():
    m = np.hstack([np.eye(3), np.zeros((3, 1))])
    reduced = _reduced(m, m)
    assert np.allclose(reduced.rotation, np.eye(3), atol=1e-12)
    assert np.allclose(reduced.translation, np.zeros(3), atol=1e-12)


def test_reduced_motion_identity_first(rng):
    r = random_rotation(rng)
    t = rng.normal(size=3) * 100
    m1 = np.hstack([np.eye(3), np.zeros((3, 1))])
    m2 = np.hstack([r, t[:, None]])
    reduced = _reduced(m1, m2)
    assert np.allclose(reduced.rotation, r, atol=1e-12)
    assert np.allclose(reduced.translation, t, atol=1e-12)


def test_reduced_motion_from_pinhole_pair(rng):
    # With a shared intrinsic block, the reduced motion is the relative pose
    # of the two extrinsics.
    for _ in range(50):
        intr = Intrinsics(
            rng.uniform(800, 1500), rng.uniform(800, 1500), rng.uniform(200, 500), rng.uniform(200, 500)
        )
        a1, a2 = random_motion(rng, 500.0), random_motion(rng, 500.0)
        m1, m2 = intr.matrices(_stack([a1, a2]))
        # the stacked pin-hole composition is the single one, entry by entry
        assert np.array_equal(m1, PerspectiveMatrix.from_pinhole(intr, a1).matrix)
        reduced = _reduced(m1, m2)
        expected = compose(invert(a1), a2)
        assert np.allclose(reduced.rotation, expected.rotation, atol=1e-9)
        assert np.allclose(reduced.translation, expected.translation, atol=1e-6)


def test_reduced_motion_errors():
    good = np.hstack([np.eye(3), np.zeros((3, 1))])
    with pytest.raises(SingularProjectionError):
        PerspectiveMatrix(np.diag([1.0, 1.0, 0.0]), np.zeros(3))
    with pytest.raises(SingularProjectionError):
        _reduced(np.diag([1.0, 1.0, 0.0, 0.0])[:3], good)
    skewed = np.hstack([np.eye(3) + np.array([[0, 0.5, 0], [0, 0, 0], [0, 0, 0]]), np.zeros((3, 1))])
    with pytest.raises(NotARotationError):
        _reduced(good, skewed)


def test_project_point_simple():
    m = PerspectiveMatrix(np.eye(3), np.zeros(3))
    assert project_point(m, [1.0, 2.0, 2.0]) == pytest.approx((0.5, 1.0))
    with pytest.raises(PointAtInfinityError):
        project_point(m, [1.0, 2.0, 0.0])


def test_project_point_principal_point():
    intr = Intrinsics(1000.0, 1100.0, 320.0, 240.0)
    m = PerspectiveMatrix.from_pinhole(intr, RigidMotion.identity())
    u, v = project_point(m, [0.0, 0.0, 700.0])
    assert (u, v) == pytest.approx((320.0, 240.0), abs=1e-12)


def test_line_of_sight_identity_matrix():
    m = PerspectiveMatrix(np.eye(3), np.zeros(3))
    line = line_of_sight(m, 0.0, 0.0)
    assert np.allclose(line.direction, [0.0, 0.0, 1.0], atol=1e-12)
    assert np.allclose(line.point, np.zeros(3), atol=1e-12)
    diag = line_of_sight(m, 1.0, 1.0)
    assert np.allclose(np.abs(diag.direction), np.ones(3) / np.sqrt(3), atol=1e-12)
    assert np.allclose(np.cross(diag.direction, [1.0, 1.0, 1.0]), np.zeros(3), atol=1e-12)


def test_line_of_sight_reprojects(rng):
    for _ in range(20):
        intr = Intrinsics(
            rng.uniform(800, 1500), rng.uniform(800, 1500), rng.uniform(200, 500), rng.uniform(200, 500)
        )
        pose = random_motion(rng, 400.0)
        m = PerspectiveMatrix.from_pinhole(intr, pose)
        u, v = rng.uniform(0, 640), rng.uniform(0, 480)
        line = line_of_sight(m, u, v)
        for s in np.linspace(-3000.0, 3000.0, 100):
            point = line.at(s)
            num = m.linear @ point + m.offset
            if abs(num[2]) < 1e-6:
                continue
            assert num[0] / num[2] == pytest.approx(u, abs=1e-9)
            assert num[1] / num[2] == pytest.approx(v, abs=1e-9)


def test_line_of_sight_round_trip_contains_point(rng):
    intr = Intrinsics(1200.0, 1150.0, 300.0, 260.0)
    pose = random_motion(rng, 300.0)
    m = PerspectiveMatrix.from_pinhole(intr, pose)
    target = rng.normal(size=3) * 200 + np.array([0.0, 0.0, 600.0])
    point_cam = pose.apply(target)
    if point_cam[2] < 1e-6:
        target = -target
    u, v = project_point(m, target)
    line = line_of_sight(m, u, v)
    offset = target - line.point
    distance = np.linalg.norm(offset - (offset @ line.direction) * line.direction)
    assert distance < 1e-6


def test_line_of_sight_degenerate_view():
    m = PerspectiveMatrix(np.eye(3), np.zeros(3))
    full = m.matrix.copy()
    full[1] = full[0]  # two identical rows: the planes coincide
    class _Fake:
        matrix = full
    with pytest.raises(DegenerateViewError):
        line_of_sight(_Fake(), 0.0, 0.0)


def _synthetic_poses(rng, truth, n_positions):
    """(n, 4, 4) camera and hand pose stacks consistent with ``truth``."""
    camera_poses = [random_motion(rng, 400.0)]
    truth_inv = invert(truth)
    for _ in range(n_positions - 1):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        step = RigidMotion(rodrigues(axis, rng.uniform(0.4, 1.4)), rng.normal(size=3) * 250)
        camera_poses.append(compose(step, camera_poses[-1]))
    hand_poses = [RigidMotion.identity()]
    for i in range(1, n_positions):
        a = compose(camera_poses[i], invert(camera_poses[i - 1]))
        b = compose(truth_inv, compose(a, truth))
        hand_poses.append(compose(hand_poses[-1], invert(b)))
    return _stack(camera_poses), _stack(hand_poses)


def _assert_constraints_satisfy(c, truth):
    rotated_axes = c.hand_axis @ truth.rotation.T
    assert np.allclose(c.camera_axis, rotated_axes, atol=1e-9)
    lhs = (c.camera_rotation - np.eye(3)) @ truth.translation
    rhs = c.hand_translation @ truth.rotation.T - c.camera_translation
    assert np.allclose(lhs, rhs, atol=1e-8)
    # conjugation identity between the two rotations
    rebuilt = truth.rotation @ c.hand_rotation @ truth.rotation.T
    assert np.linalg.norm(rebuilt - c.camera_rotation, axis=(-2, -1)).max() < 1e-9


def test_classical_constraints_satisfy_ground_truth(rng):
    truth = random_motion(rng, 150.0)
    camera_poses, hand_poses = _synthetic_poses(rng, truth, 4)
    constraints = classical_constraints(camera_poses, hand_poses)
    assert len(constraints) == 3
    _assert_constraints_satisfy(constraints, truth)
    # similarity preserves the rotation angle
    assert np.allclose(
        rotation_angle(constraints.camera_rotation),
        rotation_angle(constraints.hand_rotation),
        atol=1e-9,
    )


def test_classical_constraints_errors(rng):
    pose = random_motion(rng).matrix
    with pytest.raises(TooFewPosesError):
        classical_constraints([pose], [pose])
    with pytest.raises(ValueError):
        classical_constraints([pose, pose], [pose])
    with pytest.raises(ValueError, match=r"camera_poses must be an \(n, 4, 4\) stack"):
        classical_constraints(pose, pose)
    with pytest.raises(ValueError, match=r"hand_poses must be an \(n, 4, 4\) stack"):
        classical_constraints([pose, pose], [pose[:3], pose[:3]])
    with pytest.raises(DegenerateRotationError) as err:
        classical_constraints([pose, pose], [pose, pose])
    assert err.value.index == 0


def test_perspective_constraints_equivalent_to_classical(rng):
    # With matrices built as intrinsics times extrinsics, the first-position
    # relative transform solves the perspective constraints whenever the
    # classical ones hold for the plain transform.
    truth = random_motion(rng, 150.0)
    camera_poses, hand_poses = _synthetic_poses(rng, truth, 5)
    intr = Intrinsics(1300.0, 1250.0, 330.0, 250.0)
    constraints = perspective_constraints(intr.matrices(camera_poses), hand_poses)
    assert len(constraints) == 4
    equivalent = compose(invert(RigidMotion.from_matrix(camera_poses[0])), truth)
    _assert_constraints_satisfy(constraints, equivalent)


def test_perspective_constraints_errors(rng):
    intr = Intrinsics(1000.0, 1000.0, 320.0, 240.0)
    pose = random_motion(rng, 400.0).matrix
    m = intr.matrices(pose)
    with pytest.raises(TooFewPosesError):
        perspective_constraints([m], [pose])
    with pytest.raises(ValueError, match="input lists differ in length"):
        perspective_constraints([m, m], [pose])
    with pytest.raises(ValueError, match=r"matrices must be an \(n, 3, 4\) stack"):
        perspective_constraints([pose, pose], [pose, pose])
    with pytest.raises(DegenerateRotationError):
        perspective_constraints([m, m], [pose, pose])


def test_constraint_count_matches_positions(rng):
    truth = random_motion(rng, 100.0)
    for n in (2, 3, 6):
        camera_poses, hand_poses = _synthetic_poses(rng, truth, n)
        assert len(classical_constraints(camera_poses, hand_poses)) == n - 1


def test_from_motions_carries_parts(rng):
    camera = random_motion(rng)
    hand = random_motion(rng)
    c = _one_pair(camera, hand)
    assert np.array_equal(c.camera_rotation[0], camera.rotation)
    assert np.array_equal(c.hand_rotation[0], hand.rotation)
    assert np.array_equal(c.camera_translation[0], camera.translation)
    assert np.array_equal(c.hand_translation[0], hand.translation)
    assert np.allclose(camera.rotation @ c.camera_axis[0], c.camera_axis[0], atol=1e-9)
    assert np.allclose(hand.rotation @ c.hand_axis[0], c.hand_axis[0], atol=1e-9)
