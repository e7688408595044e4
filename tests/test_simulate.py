import ast
import sys
from pathlib import Path

import numpy as np
import pytest

import handeye.simulate as sim
from handeye import quaternion as quat
from handeye.cli import report_csv
from handeye.errors import DegenerateRotationError, ZeroTranslationError
from handeye.geometry import (
    RigidMotion,
    classical_constraints,
    compose,
    invert,
    perspective_constraints,
    rotation_angle,
    rotation_axis,
)
from handeye.simulate import (
    Distribution,
    Formulation,
    NoiseModel,
    NoiseTargets,
    Scenario,
    default_scenario,
    motion_count_sweep,
    noise_sweep,
    perspective_scenario,
    synthetic_dataset,
)
from handeye.solvers import HandEyeSolution, Method, solve

from conftest import random_motion, random_rotation


def _solution(rotation_matrix, translation):
    return HandEyeSolution(
        quat.from_rotation_matrix(rotation_matrix), translation, 0.0, 0.0, Method.CLOSED_FORM
    )


def _stacked(solutions):
    """The (J, 4) quaternions and (J, 3) translations of ``solutions``."""
    return np.stack([s.rotation for s in solutions]), np.stack([s.translation for s in solutions])


def error_stats(rotation, translation, truth):
    """RMS Frobenius rotation error and RMS relative translation error of
    estimates stacked as (J, 4) unit quaternions and (J, 3) translations,
    by the reductions a sweep point uses."""
    return sim._rms_errors(*sim._squared_errors(rotation, translation, truth), truth)


def _pose(matrix):
    return RigidMotion.from_matrix(matrix)


def _camera_motion(poses, i):
    """Motion from position i to position i + 1 of a pose stack."""
    return compose(_pose(poses[i + 1]), invert(_pose(poses[i])))


# ---------------------------------------------------------------------------
# scenarios and hand-motion derivation

def test_motion_arrays_identity_truth(rng):
    scenario = default_scenario(3, seed=5)
    identity_scenario = Scenario(
        RigidMotion.identity(), scenario.camera_poses, Formulation.CLASSICAL
    )
    rotation, translation = identity_scenario.motion_arrays
    assert rotation.shape == (3, 2, 3, 3) and translation.shape == (3, 2, 3)
    for i in range(3):
        a = _camera_motion(scenario.camera_poses, i)
        assert np.allclose(rotation[i, 0], a.rotation, atol=1e-12)
        assert np.allclose(translation[i, 0], a.translation, atol=1e-9)
        # with the identity as ground truth the hand motion is the camera's
        b = RigidMotion(rotation[i, 1], translation[i, 1])
        assert np.allclose(b.matrix, a.matrix, atol=1e-9)


def test_motion_arrays_degenerate_scenario(rng):
    pose = random_motion(rng).matrix
    scenario = Scenario(
        random_motion(rng, 100.0), np.stack([pose, pose, pose]), Formulation.CLASSICAL
    )
    with pytest.raises(DegenerateRotationError) as err:
        scenario.motion_arrays
    assert err.value.index == 0
    assert str(err.value) == "camera motion 0 is near identity"
    # the first degenerate motion is named
    other = random_motion(rng).matrix
    scenario = Scenario(
        random_motion(rng, 100.0), np.stack([pose, other, other]), Formulation.CLASSICAL
    )
    with pytest.raises(DegenerateRotationError) as err:
        scenario.motion_arrays
    assert err.value.index == 1


def test_scenario_constraints_solve_back_to_truth():
    for seed in range(10):
        scenario = default_scenario(3, seed)
        rng = sim._generator(seed, 0, 0)
        cons = sim.trial_constraints(scenario, Distribution.GAUSSIAN, 0.0, 0.0, rng)
        sol = solve(Method.CLOSED_FORM, cons)
        assert np.linalg.norm(sol.rotation_matrix - scenario.ground_truth.rotation) < 1e-8
        rel = np.linalg.norm(sol.translation - scenario.ground_truth.translation)
        assert rel / np.linalg.norm(scenario.ground_truth.translation) < 1e-8


def test_default_scenario_shape_and_norms():
    scenario = default_scenario(2, seed=0)
    assert scenario.camera_poses.shape == (3, 4, 4)
    assert np.array_equal(scenario.camera_poses[:, 3], np.tile([0.0, 0.0, 0.0, 1.0], (3, 1)))
    assert perspective_scenario(2, seed=0).camera_poses.shape == (3, 3, 4)
    assert scenario.formulation is Formulation.CLASSICAL
    assert np.linalg.norm(scenario.ground_truth.translation) == pytest.approx(157.0, abs=1e-9)
    with pytest.raises(ValueError):
        default_scenario(1, seed=0)


def test_default_scenario_geometry_guarantees():
    # motion angles, axis separations, and pose distances over many seeds
    limit = np.cos(np.radians(15.0) - 1e-12)
    for seed in range(1000):
        scenario = default_scenario(3, seed)
        axes = []
        for i in range(len(scenario.camera_poses) - 1):
            motion = _camera_motion(scenario.camera_poses, i)
            angle = rotation_angle(motion.rotation)
            assert np.radians(20.0) - 1e-9 <= angle <= np.radians(90.0) + 1e-9
            axes.append(rotation_axis(motion.rotation))
        for i in range(len(axes)):
            for j in range(i + 1, len(axes)):
                assert abs(axes[i] @ axes[j]) <= limit
        for pose in scenario.camera_poses:
            assert 300.0 - 1e-6 <= np.linalg.norm(pose[:3, 3]) <= 800.0 + 1e-6


def test_default_scenario_prefix_property():
    small = default_scenario(2, seed=42)
    large = default_scenario(7, seed=42)
    for i in range(3):
        assert np.allclose(small.camera_poses[i], large.camera_poses[i], atol=1e-15)


def test_perspective_scenario_equivalent_truth():
    for seed in range(20):
        classical = default_scenario(3, seed)
        persp = perspective_scenario(3, seed)
        assert persp.formulation is Formulation.PERSPECTIVE
        first = _pose(classical.camera_poses[0])
        recovered = compose(first, persp.ground_truth)
        assert np.allclose(recovered.matrix, classical.ground_truth.matrix, atol=1e-9)
        rotation, translation = persp.motion_arrays
        for i in range(3):
            motion = RigidMotion(rotation[i, 0], translation[i, 0])
            expected = compose(invert(first), _pose(classical.camera_poses[i + 1]))
            assert np.allclose(motion.matrix, expected.matrix, atol=1e-7)


def test_no_module_imports_private_names_from_simulate():
    for path in Path(sim.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("simulate"):
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert not private, f"{path.name} imports {private}"


@pytest.mark.parametrize(
    "noise",
    [None, NoiseModel(Distribution.GAUSSIAN, 0.01, NoiseTargets.ROTATION_AND_TRANSLATION, 3)],
    ids=["noise-free", "noisy"],
)
def test_perspective_dataset_builds_one_scenario(monkeypatch, noise):
    calls = []

    def counted(n, seed):
        calls.append((n, seed))
        return default_scenario(n, seed)

    # every binding of the name, so a second scenario is counted wherever it is built
    modules = [module for name, module in sys.modules.items() if name.startswith("handeye")]
    for module in modules:
        if getattr(module, "default_scenario", None) is default_scenario:
            monkeypatch.setattr(module, "default_scenario", counted)
    synthetic_dataset(4, 7, Formulation.PERSPECTIVE, noise)
    assert calls == [(4, 7)]


@pytest.mark.parametrize("formulation", list(Formulation))
def test_positions_inverts_motion_arrays(formulation):
    scenario = sim.SCENARIOS[formulation](5, 2)
    rotation, translation = scenario.motion_arrays
    camera, hand = scenario.positions(rotation, translation)
    assert camera.shape == (6,) + scenario.camera_poses.shape[1:] and hand.shape == (6, 4, 4)
    assert np.array_equal(camera[0], scenario.camera_poses[0])
    assert np.array_equal(hand[0], np.eye(4))
    assert np.allclose(camera, scenario.camera_poses, rtol=1e-12, atol=1e-9)
    if formulation is Formulation.CLASSICAL:
        cs = classical_constraints(camera, hand)
    else:
        cs = perspective_constraints(camera, hand)
    assert np.allclose(cs.camera_rotation, rotation[:, 0], atol=1e-12)
    assert np.allclose(cs.hand_rotation, rotation[:, 1], atol=1e-12)
    assert np.allclose(cs.camera_translation, translation[:, 0], atol=1e-9)
    assert np.allclose(cs.hand_translation, translation[:, 1], atol=1e-9)


# ---------------------------------------------------------------------------
# perturbation

BAD_LEVELS = [float("nan"), float("inf"), -0.01]


@pytest.mark.parametrize("level", BAD_LEVELS)
def test_noise_model_rejects_non_finite_level(level):
    with pytest.raises(ValueError, match="noise level must be finite and non-negative"):
        NoiseModel(Distribution.GAUSSIAN, level, NoiseTargets.ROTATION_AND_TRANSLATION, 0)


def _perturb(motions, noise, rng, translation_scale):
    """Perturbed stacked motions, one stream, draws in motion order."""
    rotation = np.stack([m.rotation for m in motions])
    translation = np.stack([m.translation for m in motions])
    trans_level = noise.level if noise.targets == NoiseTargets.ROTATION_AND_TRANSLATION else 0.0
    k = sum(sim._draw_counts(noise.distribution, noise.level, trans_level, translation_scale))
    draws = rng.random(k * len(motions)).reshape(len(motions), k)
    return sim._perturbed(
        rotation, translation, noise.distribution, noise.level, trans_level, translation_scale,
        draws,
    )


def test_perturbed_zero_level_returns_same_arrays(rng):
    rotation = np.stack([random_rotation(rng) for _ in range(3)])
    translation = rng.normal(size=(3, 3))
    out = sim._perturbed(
        rotation, translation, Distribution.GAUSSIAN, 0.0, 0.0, 100.0, np.empty((3, 0))
    )
    assert out[0] is rotation and out[1] is translation


def test_perturbed_rotation_only_keeps_translation(rng):
    motion = random_motion(rng)
    noise = NoiseModel(Distribution.GAUSSIAN, 0.05, NoiseTargets.ROTATION, 0)
    rotation, translation = _perturb([motion], noise, sim._generator(1), 300.0)
    assert np.array_equal(translation[0], motion.translation)
    assert not np.allclose(rotation[0], motion.rotation, atol=1e-12)


def test_perturbed_preserves_rotation_angle(rng):
    noise = NoiseModel(Distribution.UNIFORM, 0.08, NoiseTargets.ROTATION_AND_TRANSLATION, 0)
    motions = [random_motion(rng) for _ in range(50)]
    rotation, _ = _perturb(motions, noise, sim._generator(3), 300.0)
    for motion, out in zip(motions, rotation):
        assert rotation_angle(out) == pytest.approx(rotation_angle(motion.rotation), abs=1e-9)
        assert np.linalg.norm(rotation_axis(out)) == pytest.approx(1.0, abs=1e-12)


def test_perturbed_requires_defined_axis(rng):
    noise = NoiseModel(Distribution.GAUSSIAN, 0.05, NoiseTargets.ROTATION, 0)
    with pytest.raises(DegenerateRotationError):
        _perturb([random_motion(rng), RigidMotion.identity()], noise, sim._generator(0), 1.0)


def test_perturbed_draws_each_motion_from_its_own_slice(rng):
    # a motion's perturbation depends only on its own row of draws
    noise = NoiseModel(Distribution.GAUSSIAN, 0.05, NoiseTargets.ROTATION_AND_TRANSLATION, 0)
    motions = [random_motion(rng) for _ in range(4)]
    together = _perturb(motions, noise, sim._generator(5), 300.0)
    stream = sim._generator(5)
    for i, motion in enumerate(motions):
        alone = _perturb([motion], noise, stream, 300.0)
        assert np.array_equal(alone[0][0], together[0][i])
        assert np.array_equal(alone[1][0], together[1][i])


# Seeds of one to five 32-bit words, around the 64-bit boundary; trial ids
# of one and two words; draw counts that end inside a Philox block of four.
STREAM_SEEDS = [0, 6, 2**32, 2**64 - 1, 2**64 + 5, 2**130]
TRIAL_IDS = [*range(601), 2**32 - 1, 2**32, 2**40]
DRAW_COUNTS = [1, 3, 4, 5, 48, 216, 217]


@pytest.mark.parametrize("index", [0, 3])
@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_block_streams_match_numpy_philox(seed, index):
    # the sweep's block draws are numpy's per-trial streams (seed, index, j), bit for bit
    ids = np.array(TRIAL_IDS, dtype=np.uint64)
    keys = sim._stream_keys(seed, index, ids)
    assert keys.shape == (len(ids), 2) and keys.dtype == np.uint64
    draws = {m: sim._philox_random(keys, m) for m in DRAW_COUNTS}
    for row, j in enumerate(TRIAL_IDS):
        stream = np.random.SeedSequence(seed, spawn_key=(index, j))
        assert np.array_equal(keys[row], stream.generate_state(2, np.uint64))
        for m in DRAW_COUNTS:
            expected = np.random.Generator(np.random.Philox(stream)).random(m)
            assert np.array_equal(draws[m][row], expected)
    # a block of one trial
    for j in (0, 2**32, 2**40):
        alone = sim._philox_random(sim._stream_keys(seed, index, np.array([j], np.uint64)), 217)
        assert np.array_equal(alone[0], sim._generator(seed, index, j).random(217))


@pytest.mark.parametrize("seed", [6, 2**64 + 5])
def test_block_draws_match_the_philox_pass_on_both_sides_of_its_threshold(seed):
    # below _PHILOX_MIN_TRIALS a block draws from one generator per trial
    limit = sim._PHILOX_MIN_TRIALS
    for first, last in [(0, 1), (5, 6), (0, limit - 1), (3, limit + 2), (0, limit)]:
        ids = np.arange(first, last, dtype=np.uint64)
        for m in (0, 48, 217):
            draws = sim._block_draws(seed, 2, first, last, m)
            assert draws.shape == (last - first, m)
            assert np.array_equal(draws, sim._philox_random(sim._stream_keys(seed, 2, ids), m))


def test_noise_calibration_gaussian():
    # level 0.06 means standard deviation 0.03
    samples = sim._noise(sim._generator(7).random(200000), Distribution.GAUSSIAN, 0.06)
    assert abs(samples.std() - 0.03) / 0.03 < 0.02
    assert abs(samples.mean()) < 0.001


def test_noise_calibration_uniform():
    # level is the full width: std = level / sqrt(12), support inside +-level/2
    samples = sim._noise(sim._generator(8).random(100000), Distribution.UNIFORM, 0.06)
    expected = 0.06 / np.sqrt(12.0)
    assert abs(samples.std() - expected) / expected < 0.02
    assert np.abs(samples).max() <= 0.03


def test_translation_noise_scales_with_nominal(rng):
    motion = random_motion(rng, 100.0)
    noise = NoiseModel(Distribution.GAUSSIAN, 0.02, NoiseTargets.ROTATION_AND_TRANSLATION, 0)
    _, translation = _perturb([motion] * 2000, noise, sim._generator(11), 500.0)
    std = (translation - motion.translation).std()
    assert abs(std - 0.01 * 500.0) / (0.01 * 500.0) < 0.05


# ---------------------------------------------------------------------------
# error statistics

def test_error_stats_exact_estimates(rng):
    truth = random_motion(rng, 100.0)
    sols = [_solution(truth.rotation, truth.translation) for _ in range(5)]
    e_rot, e_tr = error_stats(*_stacked(sols), truth)
    # the quaternion round trip of the stored rotation costs a few ulp
    assert e_rot == pytest.approx(0.0, abs=1e-12)
    assert e_tr == 0.0


def test_error_stats_half_turn_offset(rng):
    # R~ = diag(1,-1,-1) R differs from R by exactly sqrt(8) in Frobenius norm
    truth = random_motion(rng, 100.0)
    flipped = np.diag([1.0, -1.0, -1.0]) @ truth.rotation
    sols = [_solution(flipped, truth.translation)]
    e_rot, e_tr = error_stats(*_stacked(sols), truth)
    assert e_rot == pytest.approx(np.sqrt(8.0), rel=1e-12)
    assert e_tr == 0.0


def test_error_stats_translation_homogeneity(rng):
    truth = random_motion(rng, 100.0)
    offset = rng.normal(size=3)
    once = [_solution(truth.rotation, truth.translation + offset)]
    twice = [_solution(truth.rotation, truth.translation + 2 * offset)]
    assert error_stats(*_stacked(twice), truth)[1] == pytest.approx(
        2 * error_stats(*_stacked(once), truth)[1], rel=1e-12
    )


def test_error_stats_rejects_zero_translation(rng):
    truth = RigidMotion(random_rotation(rng), np.zeros(3))
    with pytest.raises(ZeroTranslationError):
        error_stats(*_stacked([_solution(truth.rotation, truth.translation)]), truth)
    with pytest.raises(ValueError):
        error_stats(np.empty((0, 4)), np.empty((0, 3)), random_motion(rng))


# ---------------------------------------------------------------------------
# sweeps

BOTH = NoiseTargets.ROTATION_AND_TRANSLATION


def test_noise_sweep_zero_level_recovers_exactly():
    scenario = default_scenario(2, seed=0)
    rows = noise_sweep(scenario, [0.0], [(Distribution.GAUSSIAN, BOTH)], 2, 0)[0]
    assert len(rows) == 3
    for row in rows:
        assert row.e_rot <= 1e-8
        assert row.e_tr <= 1e-8
        assert row.failed_trials == 0


def test_noise_sweep_deterministic():
    scenario = default_scenario(2, seed=1)
    first = noise_sweep(scenario, [0.02, 0.04], [(Distribution.UNIFORM, BOTH)], 20, 9)[0]
    second = noise_sweep(scenario, [0.02, 0.04], [(Distribution.UNIFORM, BOTH)], 20, 9)[0]
    assert first == second


def test_noise_sweep_nonlinear_leads_at_high_noise():
    scenario = default_scenario(2, seed=0)
    rows = noise_sweep(scenario, [0.06], [(Distribution.GAUSSIAN, BOTH)], 150, 0)[0]
    by_method = {row.method: row for row in rows}
    nl = by_method[Method.NONLINEAR]
    for other in (Method.TSAI_LENZ, Method.CLOSED_FORM):
        assert nl.e_rot <= by_method[other].e_rot
        assert nl.e_tr <= by_method[other].e_tr


def test_a_point_where_every_trial_fails_reports_nan_errors():
    # Zero translations on both sides: every method rejects every trial,
    # and the point's rows hold NaN errors and the full trial count.
    base = default_scenario(3, 0)
    poses = base.camera_poses.copy()
    poses[:, :3, 3] = 0.0
    truth = RigidMotion(base.ground_truth.rotation, np.zeros(3))
    scenario = Scenario(truth, poses, Formulation.CLASSICAL)
    rows = noise_sweep(scenario, [0.01], [(Distribution.GAUSSIAN, BOTH)], 3, 0)[0]
    assert report_csv(rows).splitlines()[1:] == [
        "0.01,tsai-lenz,nan,nan,3",
        "0.01,closed-form,nan,nan,3",
        "0.01,nonlinear,nan,nan,3",
    ]


@pytest.mark.parametrize("formulation", list(Formulation))
def test_motion_count_sweep_row_layout(formulation):
    scenarios = [sim.SCENARIOS[formulation](n, 4) for n in (2, 4)]
    rows = motion_count_sweep(scenarios, [(Distribution.GAUSSIAN, BOTH)], 5, 1)[0]
    assert [r.sweep_var for r in rows] == [2.0, 2.0, 2.0, 4.0, 4.0, 4.0]
    assert [r.method for r in rows] == list(Method) * 2


@pytest.mark.parametrize("targets", list(NoiseTargets))
def test_motion_count_sweep_solves_trial_constraints_at_the_count_levels(targets):
    scenario = default_scenario(3, 4)
    rows = motion_count_sweep([scenario], [(Distribution.GAUSSIAN, targets)], 3, 2)[0]
    levels = (sim.COUNT_ROTATION_LEVEL, targets.translation_level(sim.COUNT_TRANSLATION_LEVEL))
    sets = [
        sim.trial_constraints(scenario, Distribution.GAUSSIAN, *levels, sim._generator(2, 0, j))
        for j in range(3)
    ]
    assert [row.sweep_var for row in rows] == [3.0] * 3
    for row in rows:
        solutions = [solve(row.method, constraints) for constraints in sets]
        assert row.failed_trials == 0
        assert (row.e_rot, row.e_tr) == error_stats(*_stacked(solutions), scenario.ground_truth)


@pytest.mark.parametrize("level", BAD_LEVELS)
def test_noise_sweep_rejects_bad_level(level):
    with pytest.raises(ValueError, match="noise level must be finite and non-negative"):
        noise_sweep(default_scenario(2, 0), [level], [(Distribution.GAUSSIAN, BOTH)], 2, 0)


@pytest.mark.parametrize("side", ["rotation", "translation"])
@pytest.mark.parametrize("level", BAD_LEVELS)
def test_trial_constraints_rejects_bad_level(level, side):
    levels = (level, 0.02) if side == "rotation" else (0.02, level)
    with pytest.raises(ValueError, match="noise level must be finite and non-negative"):
        sim.trial_constraints(
            default_scenario(2, 0), Distribution.GAUSSIAN, *levels, sim._generator(0, 0, 0)
        )


@pytest.mark.parametrize("trials", [0, 2.5, True])
@pytest.mark.parametrize("study", ["noise", "count"])
def test_sweeps_reject_bad_trial_count(study, trials):
    scenario = default_scenario(2, 0)
    with pytest.raises(ValueError, match="integer number of trials"):
        if study == "noise":
            noise_sweep(scenario, [0.01], [(Distribution.GAUSSIAN, BOTH)], trials, 0)
        else:
            motion_count_sweep([scenario], [(Distribution.GAUSSIAN, BOTH)], trials, 0)


@pytest.mark.parametrize("seed", [0.5, True, -1])
@pytest.mark.parametrize("study", ["noise", "count"])
def test_sweeps_reject_a_seed_that_is_not_a_non_negative_integer(study, seed):
    # a float or bool seed is not truncated onto an integer seed's streams
    scenario = default_scenario(2, 0)
    with pytest.raises(ValueError, match="integer seed"):
        if study == "noise":
            noise_sweep(scenario, [0.01], [(Distribution.GAUSSIAN, BOTH)], 2, seed)
        else:
            motion_count_sweep([scenario], [(Distribution.GAUSSIAN, BOTH)], 2, seed)


def _noise_report(n, trials, seed=5):
    scenario = default_scenario(n, seed=3)
    return scenario, noise_sweep(scenario, [0.04], [(Distribution.GAUSSIAN, BOTH)], trials, seed)[0]


def _assert_rows_equal_single_solves(n, trials, seed=5):
    # a sweep trial is exactly the constraint set trial_constraints builds
    # from its own generator, solved alone
    scenario, rows = _noise_report(n, trials, seed)
    sets = [
        sim.trial_constraints(
            scenario, Distribution.GAUSSIAN, 0.04, 0.04, sim._generator(seed, 0, j)
        )
        for j in range(trials)
    ]
    assert len(rows) == 3
    for row in rows:
        solutions = [solve(row.method, constraints) for constraints in sets]
        assert row.failed_trials == 0
        assert (row.e_rot, row.e_tr) == error_stats(*_stacked(solutions), scenario.ground_truth)
    return rows


def test_noise_sweep_solves_trial_constraints():
    _assert_rows_equal_single_solves(2, 3)


def test_noise_sweep_with_a_seed_beyond_64_bits_solves_trial_constraints():
    _assert_rows_equal_single_solves(2, 3, seed=2**64 + 5)


@pytest.mark.parametrize("n", [2, 5, 9])
def test_noise_sweep_across_block_boundary_solves_trial_constraints(n, monkeypatch):
    # A budget of 16 trials x motions solves blocks of 8, 3 and 1 trials, so
    # 20 trials cross 2, 6 and 19 block boundaries; the default budget
    # solves them in one block, with the same rows.
    monkeypatch.setattr(sim, "_BLOCK_MOTIONS", 16)
    small = _assert_rows_equal_single_solves(n, 20)
    monkeypatch.undo()
    assert _noise_report(n, 20)[1] == small
