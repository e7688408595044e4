"""Synthetic data: scenarios, Monte-Carlo stability sweeps, and datasets.

A :class:`Scenario` fixes a ground-truth hand-eye transform and a stack
of camera poses, (n + 1, 4, 4), or of raw perspective matrices,
(n + 1, 3, 4).  Its n noise-free motion pairs are derived from them as
stacked arrays, the hand motions as the camera motions conjugated by the
ground truth, so the noise-free problem is exactly consistent.  The
scenario builders draw every random direction, and every random rotation
as a unit quaternion, with one function, ``_random_unit``.  The harness
perturbs the relative camera and hand motions, re-solves with every
method on the same perturbed data, and reports RMS rotation and relative
translation errors against the ground truth.

Noise is a ratio: a rotation axis is a unit vector, so each of its
components receives a sample of the stated level directly; translation
components receive level times the nominal translation magnitude of the
scenario (mean motion translation norm over both sides).  ``level`` is
the full width of the uniform window and twice the standard deviation of
the Gaussian.

Each study is one function that reads a grid of (distribution, targets)
pairs, trials and a seed, and returns one tuple of report rows per pair,
in grid order, all solved in one call: ``noise_sweep`` over the levels of
one scenario, ``motion_count_sweep`` over scenarios at the
``COUNT_*_LEVEL`` noise.
Every trial is built on one path, which rejects a NaN, infinite or
negative level.  ``synthetic_dataset`` takes a :class:`NoiseModel`, builds
one scenario (``SCENARIOS``), perturbs its motions with as many draws
as one sweep trial takes (``_trial_draw_count``), from stream
(noise.seed, 2), and integrates them back into positions
(:meth:`Scenario.positions`); a perspective dataset's matrices are then
M0 [K | t], and no intrinsic or extrinsic parameter is made explicit.

Reproducibility contract: all randomness comes from Philox (counter-based,
64-bit) streams keyed by (seed, stream id), for any seed >= 0 (distinct
seeds, distinct streams); trial j of a study's point i uses spawn key (i, j);
Gaussian samples are Box-Muller transforms of uniform pairs.  Reports are
therefore bit-identical for identical seeds, and each trial's stream is
independent of execution order.

A sweep point's trials are solved in blocks, each as arrays with a
leading trial axis: the uniforms of a block's streams are computed at once
as integer array arithmetic (``_stream_keys`` hashes every trial's spawn
key into its Philox key, ``_philox_random`` runs Philox4x64-10 on all the
keys), bit-identical to one numpy ``Philox`` generator per trial, so the
contract above is unchanged; a block of fewer than
``_PHILOX_MIN_TRIALS`` (24) trials uses the generators, which cost less
there.  The noise is applied at once, the block's constraint sets are
built as one (J, n, ...) ``ConstraintSet``, and ``solvers.solve_batch``
solves them.  A block holds at most ``_BLOCK_MOTIONS`` (1024) trials x
motions, so J = 1024 // n trials (512 at n = 2, 113 at n = 9, and at
least one).  Batching changes no arithmetic, so the rows do not depend on
the block size and equal those built from ``trial_constraints`` and the
single-problem solvers, trial by trial.

Each block is a pure function of (seed, point, trial ids), so on Linux
the blocks of every (distribution, targets) pair of a call run in one
pool of worker processes forked for that call, one per usable CPU
(``os.sched_getaffinity``), and each point's rows are gathered in block
order: reports are byte-identical for any worker count.  A call with one
block or less than one full block of work in total, one on a single CPU,
one in a process with other threads alive or in a daemonic process runs
in the calling process; so does every call where
``os.sched_getaffinity`` does not exist.  With no more blocks than
workers, the calling process solves the last block itself.  The workers
ignore Ctrl-C; the caller cancels the queued blocks, and the error of the
earliest failing block is raised, as in one process.
"""

from __future__ import annotations

import os
import signal
import threading
from dataclasses import dataclass
from enum import Enum
from collections import deque
from contextlib import closing
from functools import cached_property
from itertools import islice
from typing import Callable, Iterator, Sequence

import numpy as np

from . import quaternion as quat
from .datafiles import Dataset
from .errors import CalibrationError, DegenerateRotationError, ZeroTranslationError
from .geometry import (
    MIN_ROTATION_ANGLE,
    ConstraintSet,
    Formulation,
    Intrinsics,
    RigidMotion,
    _compose,
    _consecutive_motions,
    _homogeneous,
    _invert,
    _reduced,
    compose,
    invert,
    rotation_angle,
    rotation_axis,
)
from .solvers import Method, solve_batch

# Default nominal length of the ground-truth translation, in mm.
GROUND_TRUTH_TRANSLATION_MM = 157.0

# Camera-pose generator parameters (mm / rad): the camera stays inside a
# working shell around the calibration target while the motion between
# consecutive positions keeps a healthy rotation and a modest travel.
_POSE_DISTANCE = (300.0, 800.0)
_START_DISTANCE = (450.0, 650.0)
_CENTER_STEP = (230.0, 390.0)
_MOTION_ANGLE = (np.radians(20.0), np.radians(90.0))
_MIN_AXIS_SEPARATION = np.radians(15.0)
# Candidate axes drawn for one motion before giving up.  Around 60 axes
# fill the sphere at that separation; n <= 30 motions take at most 30 draws
# for any of seeds 0-2999.
_MAX_AXIS_DRAWS = 10_000
# Pin-hole intrinsics of perspective scenarios (pixels).
_FOCAL_LENGTH = (900.0, 1600.0)
_PRINCIPAL_POINT = (240.0, 520.0)

# Noise of the motion-count study: the worst case of the noise study, 6 %
# on rotation axes and 2 % on translations.
COUNT_ROTATION_LEVEL = 0.06
COUNT_TRANSLATION_LEVEL = 0.02

# Trials x motions solved together: a sweep point with n motions solves
# its trials in blocks of max(1, _BLOCK_MOTIONS // n), so a block's arrays
# stay about the same size for every n.  The rows do not depend on it.
_BLOCK_MOTIONS = 1024

# A block of fewer trials draws its uniforms from one numpy generator per
# trial: the vectorized Philox pass costs about 0.5 ms whatever its size,
# a generator about 0.02 ms per trial.
_PHILOX_MIN_TRIALS = 24


class Distribution(str, Enum):
    UNIFORM = "uniform"
    GAUSSIAN = "gaussian"


class NoiseTargets(str, Enum):
    ROTATION = "rotation"
    ROTATION_AND_TRANSLATION = "rotation-translation"

    def translation_level(self, level: float) -> float:
        """``level`` if these targets include translations, else 0."""
        return level if self is NoiseTargets.ROTATION_AND_TRANSLATION else 0.0


def _check_level(*levels: float) -> None:
    if not all(np.isfinite(level) and level >= 0 for level in levels):
        raise ValueError("noise level must be finite and non-negative")


@dataclass(frozen=True)
class NoiseModel:
    """Noise of ``synthetic_dataset``: distribution, ratio level, targets, seed."""

    distribution: Distribution
    level: float
    targets: NoiseTargets
    seed: int

    def __post_init__(self):
        _check_level(self.level)


@dataclass(frozen=True, eq=False)
class Scenario:
    """Ground truth plus the camera side of every position.

    ``camera_poses`` is the (n + 1, 4, 4) stack of calibration->camera
    poses for the classical formulation and the (n + 1, 3, 4) stack of
    perspective matrices for the perspective one; ``ground_truth`` is the
    transform the corresponding formulation estimates.
    """

    ground_truth: RigidMotion
    camera_poses: np.ndarray
    formulation: Formulation

    @cached_property
    def motion_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The noise-free motion pairs, derived once: rotations (n, 2, 3, 3)
        and translations (n, 2, 3), camera motion first.

        Classical scenarios pair consecutive positions; perspective
        scenarios reduce every matrix against the first one.  The hand
        motions are exactly consistent with the ground truth.
        """
        poses = self.camera_poses
        if self.formulation == Formulation.CLASSICAL:
            camera = _consecutive_motions(poses)
        else:
            camera = _reduced(poses[0], poses[1:])
        near_identity = rotation_angle(camera[0]) < MIN_ROTATION_ANGLE
        if near_identity.any():
            i = int(np.argmax(near_identity))
            raise DegenerateRotationError(f"camera motion {i} is near identity", index=i)
        # hand motion X^-1 A X for camera motion A and ground truth X
        x = self.ground_truth
        hand = _compose(
            *_invert(x.rotation, x.translation), *_compose(*camera, x.rotation, x.translation)
        )
        return np.stack([camera[0], hand[0]], axis=1), np.stack([camera[1], hand[1]], axis=1)

    def positions(self, rotation: np.ndarray, translation: np.ndarray) -> tuple:
        """Inverse of :attr:`motion_arrays`: the camera stack and the
        (n + 1, 4, 4) hand stack of motions laid out like it.

        The first camera entry is the scenario's and the first hand pose
        the identity (a free gauge).  Classical motions chain consecutive
        positions; perspective matrices are the first one composed with
        each motion, M0 [K | t], which ``_reduced(M0, .)`` takes back.
        """
        first = self.camera_poses[0]
        ra, ta = rotation[:, 0], translation[:, 0]  # camera motions
        rb, tb = rotation[:, 1], translation[:, 1]  # hand motions
        eye, zero = np.eye(3), np.zeros(3)
        if self.formulation == Formulation.PERSPECTIVE:
            camera = first @ _homogeneous(ra, ta)
            hand = _homogeneous(*_compose(eye, zero, *_invert(rb, tb)))
            return np.concatenate([first[None], camera]), np.concatenate([np.eye(4)[None], hand])
        # pose i + 1 = motion i o pose i, one position after the other
        camera = [(first[:3, :3], first[:3, 3])]
        hand = [(eye, zero)]
        for i in range(len(rotation)):
            camera.append(_compose(ra[i], ta[i], *camera[-1]))
            hand.append(_compose(*hand[-1], *_invert(rb[i], tb[i])))
        return tuple(_homogeneous(*(np.stack(a) for a in zip(*side))) for side in (camera, hand))

    @cached_property
    def nominal_translation(self) -> float:
        """Mean motion translation magnitude over both sides, mm."""
        translation = self.motion_arrays[1]
        total = sum(np.linalg.norm(a) + np.linalg.norm(b) for a, b in translation)
        return float(total) / (2 * len(translation))


@dataclass(frozen=True)
class ReportRow:
    sweep_var: float
    method: Method
    e_rot: float
    e_tr: float
    failed_trials: int


# ---------------------------------------------------------------------------
# random streams

def _generator(seed: int, *stream: int) -> np.random.Generator:
    root = np.random.SeedSequence(entropy=int(seed), spawn_key=stream)
    return np.random.Generator(np.random.Philox(root))


# numpy's SeedSequence hash constants, and the Philox4x64-10 multipliers and
# key increments (Salmon et al., "Parallel random numbers: as easy as 1, 2,
# 3", SC 2011).  Every wrapping product below is an array op: numpy warns on
# a wrapping scalar one.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def _entropy_words(value: int) -> int:
    """32-bit words SeedSequence splits a non-negative integer into."""
    return max(1, -(-int(value).bit_length() // 32))


def _mix_word(pool: np.ndarray, word: np.ndarray, hash_const: int) -> int:
    """Mix one entropy word per row into a (J, 4) uint32 pool in place, as
    SeedSequence mixes an entropy word beyond its pool; returns the next
    hash constant."""
    for dst in range(4):
        value = word ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        value ^= value >> 16
        mixed = _MIX_MULT_L * pool[:, dst] - _MIX_MULT_R * value
        pool[:, dst] = mixed ^ mixed >> 16
    return hash_const


def _stream_keys(seed: int, index: int, trial_ids: np.ndarray) -> np.ndarray:
    """Philox keys of the streams (seed, index, j) for the trial ids j in
    ``trial_ids``, (J, 2) uint64: row j is
    ``SeedSequence(seed, spawn_key=(index, j)).generate_state(2, np.uint64)``.

    Every trial shares the pool of (seed, index); its own spawn-key words
    (one below 2**32, else two) are mixed into a copy of it per row.
    """
    prefix = np.random.SeedSequence(int(seed), spawn_key=(int(index),))
    # The pool is filled by 4 hash steps and mixed by 12; each entropy word
    # beyond it takes 4 more.  The run words are padded to 4 when a spawn
    # key follows them.
    words = max(4, _entropy_words(seed)) + _entropy_words(index)
    hash_const = _INIT_A * pow(_MULT_A, 16 + 4 * (words - 4), 1 << 32) & _MASK32
    ids = np.asarray(trial_ids, dtype=np.uint64)
    pool = np.tile(prefix.pool, (len(ids), 1))
    hash_const = _mix_word(pool, (ids & _MASK32).astype(np.uint32), hash_const)
    wide = np.flatnonzero(ids >> 32)
    high = pool[wide]
    _mix_word(high, (ids[wide] >> 32).astype(np.uint32), hash_const)
    pool[wide] = high
    # generate_state: four hashed pool words, paired low word first
    state, hash_const = [], _INIT_B
    for word in pool.T:
        value = word ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        state.append((value ^ value >> 16).astype(np.uint64))
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=-1)


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products a * b, the high one
    built from 32-bit halves."""
    a_lo, a_hi = a & _MASK32, a >> 32
    b_lo, b_hi = b & _MASK32, b >> 32
    cross = b_hi * a_lo
    middle = (b_lo * a_lo >> 32) + (cross & _MASK32) + b_lo * a_hi
    return b_hi * a_hi + (cross >> 32) + (middle >> 32), b * a


def _philox_random(keys: np.ndarray, m: int) -> np.ndarray:
    """The first ``m`` doubles of the Philox4x64-10 streams keyed by the rows
    of ``keys``, (J, m): row by row ``Generator(Philox(key=key)).random(m)``.

    A fresh Philox stream encrypts the counters 1, 2, ... and hands out each
    block's four words in order; a double is ``(word >> 11) * 2**-53``.
    """
    k0, k1 = keys[:, :1], keys[:, 1:]
    # The counter words broadcast: the first two rounds are cheaper while a
    # word does not yet depend on both the key and the counter.
    c0 = np.arange(1, -(-m // 4) + 1, dtype=np.uint64)
    c1 = c2 = c3 = np.zeros(1, dtype=np.uint64)
    for round_ in range(10):
        if round_:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack([c0, c1, c2, c3], axis=-1).reshape(len(keys), -1)[:, :m]
    return (words >> 11) * (1.0 / 9007199254740992.0)


# Uniform draws per noise sample.
_DRAWS = {Distribution.UNIFORM: 1, Distribution.GAUSSIAN: 2}


def _noise(draws: np.ndarray, distribution: Distribution, level: float) -> np.ndarray:
    """Zero-centered samples at the stated ratio level from uniform draws.

    Uniform: width ``level`` (support [-level/2, +level/2]), one draw per
    sample.  Gaussian: standard deviation ``level / 2``, via Box-Muller on
    uniform pairs: the last axis holds every sample's first draw, then
    every sample's second draw.
    """
    if distribution == Distribution.UNIFORM:
        return level * (draws - 0.5)
    half = draws.shape[-1] // 2
    u1, u2 = draws[..., :half], draws[..., half:]
    return 0.5 * level * np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)


def _random_unit(rng: np.random.Generator, size: int) -> np.ndarray:
    """A unit vector of ``size`` components, uniform on the sphere: standard
    Gaussian samples of :func:`_noise` (level 2), normalized, and drawn
    again while their norm vanishes."""
    while True:
        v = _noise(rng.random(2 * size), Distribution.GAUSSIAN, 2.0)
        norm = np.linalg.norm(v)
        if norm > 1e-9:
            return v / norm


def _uniform_in(rng: np.random.Generator, lo: float, hi: float) -> float:
    return lo + (hi - lo) * float(rng.random())


# ---------------------------------------------------------------------------
# perturbation and error statistics

def _draw_counts(
    distribution: Distribution, rot_level: float, trans_level: float, nominal_translation: float
) -> tuple[int, int]:
    """Uniform draws one perturbation takes for its rotation axis and for
    its translation; a zero level draws nothing."""
    per_vector = 3 * _DRAWS[distribution]
    rotation = per_vector if rot_level > 0.0 else 0
    noisy_translation = trans_level > 0.0 and trans_level * nominal_translation != 0.0
    return rotation, per_vector if noisy_translation else 0


def _perturbed(
    rotation: np.ndarray,
    translation: np.ndarray,
    distribution: Distribution,
    rot_level: float,
    trans_level: float,
    nominal_translation: float,
    draws: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Perturbed rotations (..., 3, 3) and translations (..., 3).

    Each rotation axis gets one sample of ``rot_level`` per component and
    is renormalized (a non-unit axis defines no rotation); the angle is
    untouched, and a near-identity rotation raises
    DegenerateRotationError; a level so large that a noisy axis's norm
    overflows raises CalibrationError.  Translation components get
    samples of ``trans_level`` times ``nominal_translation`` (mm).
    ``draws`` holds each motion's uniform draws, (..., k) as counted by
    :func:`_draw_counts`: the rotation axis's first, then the translation's.
    """
    k_rot, k_tr = _draw_counts(distribution, rot_level, trans_level, nominal_translation)
    if rot_level > 0.0:
        axis = rotation_axis(rotation)
        angle = rotation_angle(rotation)
        noisy = axis + _noise(draws[..., :k_rot], distribution, rot_level)
        with np.errstate(over="ignore"):
            norm = quat.vnorm(noisy)
        if not np.isfinite(norm).all():
            raise CalibrationError(
                f"rotation noise level {rot_level:g} overflows the norm of a noisy axis"
            )
        usable = norm > 1e-12
        axis = np.where(usable[..., None], noisy / np.where(usable, norm, 1.0)[..., None], axis)
        rotation = quat.to_rotation_matrix(quat.from_axis_angle(axis, angle))
    if k_tr:
        level = trans_level * nominal_translation
        translation = translation + _noise(draws[..., k_rot:], distribution, level)
    return rotation, translation


def _squared_errors(
    rotation: np.ndarray, translation: np.ndarray, truth: RigidMotion
) -> tuple[np.ndarray, np.ndarray]:
    """Squared Frobenius rotation errors and squared translation errors, (J,)
    each, of estimates stacked as (J, 4) unit quaternions and (J, 3)
    translations."""
    rot_sq = ((quat.to_rotation_matrix(rotation) - truth.rotation) ** 2).reshape(-1, 9)
    return np.sum(rot_sq, axis=-1), np.sum((translation - truth.translation) ** 2, axis=-1)


def _rms_errors(rot_sq: np.ndarray, tr_sq: np.ndarray, truth: RigidMotion) -> tuple[float, float]:
    """RMS rotation error and RMS relative translation error from the
    per-estimate squared errors of :func:`_squared_errors`."""
    if len(rot_sq) == 0:
        raise ValueError("at least one estimate is required")
    t_norm = float(np.linalg.norm(truth.translation))
    if t_norm == 0.0:
        raise ZeroTranslationError("relative translation error undefined for zero translation")
    return float(np.sqrt(np.mean(rot_sq))), float(np.sqrt(np.mean(tr_sq))) / t_norm


# ---------------------------------------------------------------------------
# scenarios

def default_scenario(n: int, seed: int) -> Scenario:
    """Random classical scenario with ``n`` motions (n + 1 camera poses).

    The ground-truth translation has magnitude 157 mm and a uniformly
    random rotation.  Camera poses keep the camera 300-800 mm from the
    calibration frame; consecutive motions rotate by 20-90 degrees about
    axes pairwise separated by at least 15 degrees and travel 230-390 mm.
    Deterministic per seed, and scenarios with the same seed share their
    leading motions.  Raises CalibrationError when ``_MAX_AXIS_DRAWS``
    draws find no axis for the next motion; about 60 axes fill the sphere.
    """
    if n < 2:
        raise ValueError(f"need at least 2 motions, got {n}")
    rng = _generator(seed)
    truth = RigidMotion(
        quat.to_rotation_matrix(_random_unit(rng, 4)),
        GROUND_TRUTH_TRANSLATION_MM * _random_unit(rng, 3),
    )
    rot = quat.to_rotation_matrix(_random_unit(rng, 4))
    center = _random_unit(rng, 3) * _uniform_in(rng, *_START_DISTANCE)
    rotations, translations = [rot], [-rot @ center]
    axes: list[np.ndarray] = []
    for _ in range(n):
        for _ in range(_MAX_AXIS_DRAWS):
            axis = _random_unit(rng, 3)
            if all(
                np.arccos(min(1.0, abs(float(axis @ a)))) >= _MIN_AXIS_SEPARATION
                for a in axes
            ):
                break
        else:
            raise CalibrationError(
                f"cannot place {n} motion axes pairwise at least "
                f"{np.degrees(_MIN_AXIS_SEPARATION):.0f} degrees apart: "
                f"no room for axis {len(axes) + 1} in {_MAX_AXIS_DRAWS} draws"
            )
        axes.append(axis)
        angle = _uniform_in(rng, *_MOTION_ANGLE)
        step_rot = quat.to_rotation_matrix(quat.from_axis_angle(axis, angle))
        while True:
            candidate = center + _random_unit(rng, 3) * _uniform_in(rng, *_CENTER_STEP)
            if _POSE_DISTANCE[0] <= np.linalg.norm(candidate) <= _POSE_DISTANCE[1]:
                break
        center = candidate
        rot = step_rot @ rot
        rotations.append(rot)
        translations.append(-rot @ center)
    poses = _homogeneous(np.stack(rotations), np.stack(translations))
    return Scenario(truth, poses, Formulation.CLASSICAL)


def perspective_scenario(n: int, seed: int) -> Scenario:
    """Perspective twin of ``default_scenario(n, seed)``.

    Camera poses are identical; each is composed with one random pin-hole
    intrinsic block drawn from stream (seed, 1): focal lengths 900-1600
    and principal point 240-520 pixels.  The ground truth becomes the
    first-pose-relative transform the perspective formulation estimates.
    """
    base = default_scenario(n, seed)
    rng = _generator(seed, 1)
    focal = [_uniform_in(rng, *_FOCAL_LENGTH) for _ in range(2)]
    intrinsics = Intrinsics(*focal, *(_uniform_in(rng, *_PRINCIPAL_POINT) for _ in range(2)))
    truth = compose(invert(RigidMotion.from_matrix(base.camera_poses[0])), base.ground_truth)
    return Scenario(truth, intrinsics.matrices(base.camera_poses), Formulation.PERSPECTIVE)


# The scenario builder of each formulation, called as builder(n, seed).
SCENARIOS: dict[Formulation, Callable[[int, int], Scenario]] = {
    Formulation.CLASSICAL: default_scenario,
    Formulation.PERSPECTIVE: perspective_scenario,
}


# ---------------------------------------------------------------------------
# sweeps

def _trial_draw_count(
    scenario: Scenario, distribution: Distribution, rot_level: float, trans_level: float
) -> int:
    """Uniform draws one trial takes: k per motion of each pair, as counted
    by :func:`_draw_counts`."""
    k = sum(_draw_counts(distribution, rot_level, trans_level, scenario.nominal_translation))
    return k * len(scenario.motion_arrays[0]) * 2


def _perturbed_constraints(
    scenario: Scenario,
    distribution: Distribution,
    rot_level: float,
    trans_level: float,
    draws: np.ndarray,
) -> ConstraintSet:
    """The constraint sets of the trials whose uniform draws are the rows of
    ``draws``, (J, :func:`_trial_draw_count`), stacked (J, n, ...).

    Trial j perturbs every motion pair, camera motion first, with the draws
    of its row in a fixed order, so its set is a pure function of that row.
    A NaN, infinite or negative level raises ValueError.
    """
    _check_level(rot_level, trans_level)
    rotation, translation = scenario.motion_arrays
    scale = scenario.nominal_translation
    n = len(rotation)
    draws = draws.reshape(len(draws), n, 2, draws.shape[1] // (2 * n))
    rotation, translation = _perturbed(
        rotation, translation, distribution, rot_level, trans_level, scale, draws
    )
    rotation = np.broadcast_to(rotation, draws.shape[:-1] + (3, 3))
    translation = np.broadcast_to(translation, draws.shape[:-1] + (3,))
    return ConstraintSet.from_motions(
        rotation[:, :, 0], translation[:, :, 0], rotation[:, :, 1], translation[:, :, 1]
    )


def _trial_constraints(
    scenario: Scenario,
    distribution: Distribution,
    rot_level: float,
    trans_level: float,
    rngs: Sequence[np.random.Generator],
) -> ConstraintSet:
    """The constraint sets of ``len(rngs)`` trials, stacked (J, n, ...),
    trial j perturbed by the first draws of ``rngs[j]``.

    The reference for the sweep, whose blocks compute the same draws with
    :func:`_stream_keys` and :func:`_philox_random`.
    """
    m = _trial_draw_count(scenario, distribution, rot_level, trans_level)
    draws = np.stack([rng.random(m) for rng in rngs])
    return _perturbed_constraints(scenario, distribution, rot_level, trans_level, draws)


def trial_constraints(
    scenario: Scenario,
    distribution: Distribution,
    rot_level: float,
    trans_level: float,
    rng: np.random.Generator,
) -> ConstraintSet:
    """One trial's constraint set: every motion independently perturbed.

    Each (camera, hand) motion pair consumes its noise samples in a fixed
    order, so the set is a pure function of the rng stream.
    """
    cs = _trial_constraints(scenario, distribution, rot_level, trans_level, [rng])
    return ConstraintSet(*(a[0] for a in cs.arrays))


def _block_draws(seed: int, index: int, first: int, last: int, m: int) -> np.ndarray:
    """The first ``m`` uniforms of streams (seed, index, j) for the trials j
    in [first, last), (last - first, m): one vectorized Philox pass, or
    below ``_PHILOX_MIN_TRIALS`` trials one numpy generator per trial, which
    costs less there and draws the same numbers."""
    if last - first < _PHILOX_MIN_TRIALS:
        return np.stack([_generator(seed, index, j).random(m) for j in range(first, last)])
    ids = np.arange(first, last, dtype=np.uint64)
    return _philox_random(_stream_keys(seed, index, ids), m)


def _solve_block(task: tuple) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Trials [first, last) of a study's point ``index``, for ``task`` =
    (seed, index, scenario, distribution, (rot_level, trans_level), first,
    last): per method in ``Method`` order, the count of trials it rejected
    (every error a solve records is a CalibrationError) and the squared
    errors of the others."""
    seed, index, scenario, distribution, levels, first, last = task
    m = _trial_draw_count(scenario, distribution, *levels)
    constraints = _perturbed_constraints(
        scenario, distribution, *levels, _block_draws(seed, index, first, last, m)
    )
    results = []
    for batch in solve_batch(constraints).values():
        ok = batch.ok
        squared = _squared_errors(batch.rotation[ok], batch.translation[ok], scenario.ground_truth)
        results.append((int(np.count_nonzero(~ok)), *squared))
    return results


def _ignore_interrupts() -> None:
    """Leave Ctrl-C to the parent process: a worker keeps solving until the
    parent cancels or collects its block."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _pool_size(blocks: int, work: int) -> int:
    """Worker processes for a ``_sweep`` call of ``blocks`` blocks and
    ``work`` trials x motions in total, over all its studies; 1 means the
    calling process solves them itself.

    One per usable CPU, never more than the blocks.  The call stays in
    this process where forking is unsafe or cannot pay for itself: without
    ``os.sched_getaffinity`` (not Linux), on one CPU, with other threads
    alive, in a daemonic process (which may not have children), with one
    block, or with less work than one full block.
    """
    if blocks < 2 or work < _BLOCK_MOTIONS or not hasattr(os, "sched_getaffinity"):
        return 1
    cpus = len(os.sched_getaffinity(0))
    if cpus < 2 or threading.active_count() > 1:
        return 1
    import multiprocessing

    if multiprocessing.current_process().daemon:
        return 1
    return min(cpus, blocks)


def _solve_blocks(tasks: list[tuple], workers: int) -> Iterator:
    """``_solve_block`` of every task, yielded in task order, on ``workers``
    processes: this one alone, or forked workers that end before the
    iterator is exhausted or closed.  With no more tasks than workers, this
    process solves the last task itself and forks one worker fewer.  At
    most two tasks per worker are queued at a time.  The error of the
    earliest failing task is raised, and no task still queued starts after
    it or after the iterator is closed."""
    if workers < 2 or len(tasks) < 2:
        yield from map(_solve_block, tasks)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    forked = tasks[:-1] if len(tasks) <= workers else tasks
    workers = min(workers, len(forked))
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=context, initializer=_ignore_interrupts) as pool:
        try:
            # a bounded queue: the pending futures do not grow with the tasks
            queue = iter(forked)
            pending = deque(pool.submit(_solve_block, t) for t in islice(queue, 2 * workers))
            try:
                own = list(map(_solve_block, tasks[len(forked):]))
            except Exception:
                for future in pending:
                    future.result()  # an earlier task's error comes first
                raise
            while pending:
                result = pending.popleft().result()
                pending.extend(pool.submit(_solve_block, t) for t in islice(queue, 1))
                yield result
            yield from own
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _point_rows(sweep_var, truth: RigidMotion, blocks: list, trials: int) -> list[ReportRow]:
    """One row per method for a point, from the :func:`_solve_block`
    results of its blocks in block order."""
    rows = []
    for m, per_block in zip(Method, zip(*blocks)):
        counts, rot_sq, tr_sq = zip(*per_block)
        failed = sum(counts)
        if failed < trials:
            e_rot, e_tr = _rms_errors(np.concatenate(rot_sq), np.concatenate(tr_sq), truth)
        else:
            e_rot = e_tr = float("nan")
        rows.append(ReportRow(float(sweep_var), m, e_rot, e_tr, failed))
    return rows


def _sweep(
    studies: list[tuple[list, Distribution]], trials: int, seed: int
) -> list[tuple[ReportRow, ...]]:
    """The report rows of each (points, distribution) study, in study order:
    one row per method for each (sweep_var, scenario, rot_level,
    trans_level) point.  Trials a solver rejects are left out of the RMS
    and counted.  ``noise_sweep`` and ``motion_count_sweep`` pass one study
    per (distribution, targets) pair of their grid.  ``trials`` must be an
    integer >= 1 and ``seed`` an integer >= 0, and a bool is neither; any
    other value raises ``ValueError`` rather than being truncated.

    Trial j of point i of any study draws the first uniforms of stream
    (seed, i, j), as ``_generator(seed, i, j).random`` would, so a study's
    rows do not depend on the other studies of the call.  Each point's
    trials are split into blocks of ``_BLOCK_MOTIONS`` trials x motions;
    the blocks of every study are solved by one :func:`_solve_blocks`
    call, on one pool sized by the call's total blocks and work, each by
    :func:`_solve_block`, a pure function of its task.  A point's squared
    errors are concatenated in block order, so the rows do not depend on
    where or in which order the blocks ran; they are reduced as soon as
    the point's last block arrives, so the call holds the arrays of about
    one point at a time.
    """
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)) or trials < 1:
        raise ValueError(f"need an integer number of trials >= 1, got {trials!r}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"need an integer seed >= 0, got {seed!r}")
    tasks, blocks, work = [], [], 0
    for points, distribution in studies:
        for index, (_, scenario, rot_level, trans_level) in enumerate(points):
            # Derive the noise-free motions once, here: each task pickles
            # them with its scenario, and a degenerate scenario fails before
            # any block.
            scenario.nominal_translation
            n = len(scenario.camera_poses) - 1
            block = max(1, _BLOCK_MOTIONS // n)
            work += trials * n
            firsts = range(0, trials, block)
            tasks += [
                (seed, index, scenario, distribution, (rot_level, trans_level), first,
                 min(first + block, trials))
                for first in firsts
            ]
            blocks.append(len(firsts))
    reports, per_point = [], iter(blocks)
    with closing(_solve_blocks(tasks, _pool_size(len(tasks), work))) as results:
        for points, _ in studies:
            rows = []
            for sweep_var, scenario, _, _ in points:
                # no name holds the point's results: they are dropped as
                # _point_rows returns, before the next point's are collected
                mine = islice(results, next(per_point))
                rows += _point_rows(sweep_var, scenario.ground_truth, list(mine), trials)
            reports.append(tuple(rows))
    return reports


def noise_sweep(
    scenario: Scenario,
    levels: Sequence[float],
    grid: Sequence[tuple[Distribution, NoiseTargets]],
    trials: int,
    seed: int,
) -> list[tuple[ReportRow, ...]]:
    """Error statistics versus noise level for each (distribution, targets)
    pair of ``grid``, in order: one row per level and method.

    For each level, ``trials`` independent trials perturb every camera and
    hand motion, rebuild the constraints once, and hand the same noisy
    data to all three methods.
    """
    studies = []
    for dist, targets in grid:
        points = [(level, scenario, level, targets.translation_level(level)) for level in levels]
        studies.append((points, dist))
    return _sweep(studies, trials, seed)


def motion_count_sweep(
    scenarios: Sequence[Scenario],
    grid: Sequence[tuple[Distribution, NoiseTargets]],
    trials: int,
    seed: int,
) -> list[tuple[ReportRow, ...]]:
    """Error statistics versus the number of motions for each
    (distribution, targets) pair of ``grid``, in order: one row per
    scenario and method, at the worst-case noise of the noise study,
    ``COUNT_ROTATION_LEVEL`` on rotation axes and, if the targets include
    them, ``COUNT_TRANSLATION_LEVEL`` on translations.
    """
    studies = []
    for dist, targets in grid:
        trans = targets.translation_level(COUNT_TRANSLATION_LEVEL)
        points = [(len(s.camera_poses) - 1, s, COUNT_ROTATION_LEVEL, trans) for s in scenarios]
        studies.append((points, dist))
    return _sweep(studies, trials, seed)


# ---------------------------------------------------------------------------
# synthetic datasets

def synthetic_dataset(
    n: int, seed: int, formulation: Formulation, noise: NoiseModel | None = None
) -> Dataset:
    """Schema-valid dataset with its ground truth recorded in metadata.

    Builds the formulation's scenario for ``n`` motions once, optionally
    perturbs its relative motions from stream (noise.seed, 2) (the camera
    motions' draws first, then the hand motions'), and integrates them
    back into absolute positions with :meth:`Scenario.positions`.
    """
    scenario = SCENARIOS[formulation](n, seed)
    rotation, translation = scenario.motion_arrays
    if noise is not None and noise.level > 0:
        scale = scenario.nominal_translation
        trans_level = noise.targets.translation_level(noise.level)
        m = _trial_draw_count(scenario, noise.distribution, noise.level, trans_level)
        draws = _generator(noise.seed, 2).random(m).reshape(2, n, -1).swapaxes(0, 1)
        rotation, translation = _perturbed(
            rotation, translation, noise.distribution, noise.level, trans_level, scale, draws
        )
    camera, hand = scenario.positions(rotation, translation)

    truth = scenario.ground_truth
    metadata = {
        "ground_truth": {
            "rotation_matrix": truth.rotation.tolist(),
            "translation_mm": truth.translation.tolist(),
        },
        "generator": {
            "motions": int(n),
            "seed": int(seed),
            "noise_level": float(noise.level) if noise else 0.0,
            "noise_distribution": noise.distribution.value if noise else None,
            "noise_targets": noise.targets.value if noise else None,
        },
    }
    return Dataset(formulation, hand, camera, metadata)
