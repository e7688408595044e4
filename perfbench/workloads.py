"""The three benchmark workloads: inputs from the seed, CLI calls, checks.

Every workload is a closed loop with one client: the next ``handeye``
CLI call starts when the previous one returns.  A cycle is a fixed list of
calls; runs measure whole cycles, so every run sees the same mix.

* ``calibrate``: ``handeye calibrate --output`` over a corpus of the three
  sample files plus synthetic datasets written during set-up by
  ``handeye generate`` (classical and perspective, 2 to 30 motions, 1%
  Gaussian noise), each dataset once with each method.
* ``sweep-noise``: ``handeye simulate --levels L --trials 1000 --seed 0``
  on the acceptance grid's 2-motion scenario, over uniform and Gaussian
  noise on rotation and on rotation and translation.
* ``sweep-count``: ``handeye simulate --motions 2,m,9 --trials 1000
  --seed 6`` with Gaussian noise on rotation and translation, the setup of
  acceptance criteria 08-09.

The workload seed picks the inputs: the synthetic datasets' generator
seeds, the noise level (within 10% of 0.03), and the middle motion count
m.  At the default seed the outputs are compared with the committed
references in ``reference/``; every seed gets the structural checks.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import yaml

DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

CSV_HEADER = "sweep_var,method,e_rot,e_tr,failed_trials"
METHODS = ("tsai-lenz", "closed-form", "nonlinear")
TRIALS = 1000

# Sweep rows must match the reference within this relative error
# (e_rot, e_tr); failed_trials must match exactly.
CSV_RTOL = 1e-9
# Calibrate solutions must match the reference within this error:
# absolute per quaternion component, relative to the norm for translation.
SOLUTION_TOL = 1e-8
# Noise-free sample: acceptance criterion 02's recovery bounds
# (Frobenius rotation error, relative translation error).
TRUTH_ROTATION_TOL = 1e-8
TRUTH_TRANSLATION_TOL = 1e-7


@dataclass(frozen=True)
class Op:
    """One ``handeye`` CLI call of a cycle."""

    key: str           # reference key
    argv: tuple        # arguments to handeye.cli.main
    outputs: tuple     # files the call writes
    trials: int        # Monte-Carlo trials; a calibrate call counts as one
    solves: int        # solver invocations attempted


# ---------------------------------------------------------------------------
# output checks

def _rel_close(a: float, b: float, rtol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _parse_csv(text: str) -> tuple[str, list[list[str]]]:
    lines = text.splitlines()
    if not lines:
        return "", []
    return lines[0], [line.split(",") for line in lines[1:]]


def check_sweep_csv(text: str, sweep_vars, trials: int) -> tuple[list[str], int]:
    """Structural checks of one sweep CSV; returns (problems, rejected solves)."""
    header, rows = _parse_csv(text)
    problems = []
    if header != CSV_HEADER:
        problems.append(f"header {header!r} != {CSV_HEADER!r}")
    expected = [(var, method) for var in sweep_vars for method in METHODS]
    if len(rows) != len(expected):
        return problems + [f"{len(rows)} rows, expected {len(expected)}"], 0
    rejected = 0
    for row, (var, method) in zip(rows, expected):
        try:
            sweep_var, name, e_rot, e_tr, failed = row
            values = (float(sweep_var), float(e_rot), float(e_tr))
            failed = int(failed)
        except ValueError:
            problems.append(f"malformed row {row}")
            continue
        if name != method or not _rel_close(values[0], var, 1e-12):
            problems.append(f"row {row} where ({var}, {method}) was expected")
        if not 0 <= failed <= trials:
            problems.append(f"row {row}: failed_trials out of range")
            continue
        rejected += failed
        if failed < trials and not all(math.isfinite(v) for v in values[1:]):
            problems.append(f"row {row}: non-finite error")
    return problems, rejected


def compare_csv(text: str, reference: str) -> list[str]:
    """Differences between a sweep CSV and its reference."""
    header, rows = _parse_csv(text)
    ref_header, ref_rows = _parse_csv(reference)
    if header != ref_header or len(rows) != len(ref_rows):
        return [f"shape differs from reference ({len(rows)} vs {len(ref_rows)} rows)"]
    problems = []
    for row, ref in zip(rows, ref_rows):
        try:
            same = (
                len(row) == len(ref) == 5
                and row[1] == ref[1]
                and float(row[0]) == float(ref[0])
                and _rel_close(float(row[2]), float(ref[2]), CSV_RTOL)
                and _rel_close(float(row[3]), float(ref[3]), CSV_RTOL)
                and int(row[4]) == int(ref[4])
            )
        except ValueError:
            same = False
        if not same:
            problems.append(f"row {','.join(row)} != reference {','.join(ref)}")
    return problems


def rotation_matrix(q) -> list[list[float]]:
    """Rotation matrix of a unit quaternion [w, x, y, z]."""
    w, x, y, z = q
    return [
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ]


def _norm(v) -> float:
    return math.sqrt(sum(x * x for x in v))


def read_solution(path: Path) -> tuple[list[float], list[float]]:
    doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    return [float(x) for x in doc["quaternion_wxyz"]], [float(x) for x in doc["translation_mm"]]


def check_solution(q, t, reference=None, truth=None) -> list[str]:
    problems = []
    if len(q) != 4 or len(t) != 3 or not all(math.isfinite(x) for x in (*q, *t)):
        return [f"malformed solution q={q} t={t}"]
    if abs(_norm(q) - 1.0) > 1e-9:
        problems.append(f"quaternion norm {_norm(q)!r} is not 1")
    if reference is not None:
        ref_q, ref_t = reference["quaternion_wxyz"], reference["translation_mm"]
        dq = max(abs(a - b) for a, b in zip(q, ref_q))
        dt = _norm([a - b for a, b in zip(t, ref_t)]) / _norm(ref_t)
        if dq > SOLUTION_TOL or dt > SOLUTION_TOL:
            problems.append(f"solution differs from reference (dq {dq:.2e}, dt {dt:.2e})")
    if truth is not None:
        rot = rotation_matrix(q)
        rot_err = math.sqrt(sum(
            (rot[i][j] - truth["rotation_matrix"][i][j]) ** 2
            for i in range(3) for j in range(3)
        ))
        ref_t = truth["translation_mm"]
        tr_err = _norm([a - b for a, b in zip(t, ref_t)]) / _norm(ref_t)
        if rot_err > TRUTH_ROTATION_TOL or tr_err > TRUTH_TRANSLATION_TOL:
            problems.append(
                f"ground truth not recovered (rotation {rot_err:.2e}, translation {tr_err:.2e})"
            )
    return problems


# ---------------------------------------------------------------------------
# workloads

class Workload:
    name = ""

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.root = root
        self.seed = seed
        self.workdir = workdir
        self.ops: list[Op] = []

    @property
    def default_seed(self) -> bool:
        return self.seed == DEFAULT_SEED

    def setup(self, main) -> list[str]:
        """One set-up repetition through the CLI entry point ``main``;
        returns the problems found."""
        raise NotImplementedError

    def cold_argv(self) -> list[str]:
        raise NotImplementedError

    def check(self, op: Op, code: int) -> tuple[list[str], int]:
        """(problems, rejected solves) of a finished call."""
        raise NotImplementedError

    def record(self, op: Op):
        """The reference value of a finished call."""
        raise NotImplementedError


class Calibrate(Workload):
    name = "calibrate"
    SYNTHETIC = [(form, n) for form in ("classical", "perspective") for n in (2, 5, 10, 20, 30)]
    SAMPLES = ("classical", "perspective", "synthetic_with_truth")

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        self.generate: list[list[str]] = []
        datasets = [(name, root / "samples" / f"{name}.yaml") for name in self.SAMPLES]
        for index, (form, n) in enumerate(self.SYNTHETIC):
            name = f"{form}_n{n}"
            path = workdir / f"{name}.yaml"
            self.generate.append([
                "generate", "--motions", str(n), "--seed", str(100 * seed + index),
                "--formulation", form, "--noise-level", "0.01",
                "--noise-distribution", "gaussian",
                "--noise-targets", "rotation-translation", str(path),
            ])
            datasets.append((name, path))
        for name, path in datasets:
            for method in METHODS:
                output = workdir / f"solution_{name}_{method}.yaml"
                self.ops.append(Op(
                    f"{name}|{method}",
                    ("calibrate", str(path), "--method", method, "--output", str(output)),
                    (output,), 1, 1,
                ))
        doc = yaml.safe_load((root / "samples" / "synthetic_with_truth.yaml").read_text())
        self.truth = doc["metadata"]["ground_truth"]
        self.reference = None
        if self.default_seed:
            path = REFERENCE_DIR / "calibrate.json"
            self.reference = json.loads(path.read_text()) if path.is_file() else {}

    def setup(self, main):
        problems = []
        for argv in self.generate:
            code = main(argv)
            if code != 0:
                problems.append(f"generate {argv} exited {code}")
        return problems

    def cold_argv(self):
        return [
            "calibrate", str(self.root / "samples" / "classical.yaml"),
            "--method", "nonlinear", "--output", str(self.workdir / "cold.yaml"),
        ]

    def check(self, op, code):
        if code != 0:
            return [f"{op.key}: exit code {code}"], 0
        try:
            q, t = read_solution(op.outputs[0])
        except (OSError, KeyError, TypeError, ValueError, yaml.YAMLError) as err:
            return [f"{op.key}: unreadable solution ({err!r})"], 0
        reference = None
        if self.reference is not None:
            reference = self.reference.get(op.key)
            if reference is None:
                return [f"{op.key}: no reference"], 0
        truth = self.truth if op.key.startswith("synthetic_with_truth|") else None
        return [f"{op.key}: {p}" for p in check_solution(q, t, reference, truth)], 0

    def record(self, op):
        q, t = read_solution(op.outputs[0])
        return {"quaternion_wxyz": q, "translation_mm": t}


def _resized(argv, trials: int, output: Path) -> list[str]:
    argv = list(argv)
    argv[argv.index("--trials") + 1] = str(trials)
    argv[argv.index("--output") + 1] = str(output)
    return argv


class _Sweep(Workload):
    def setup(self, main):
        problems = []
        for op in self.ops:
            code = main(_resized(op.argv, 1, self.workdir / "warm-up.csv"))
            if code != 0:
                problems.append(f"{op.key}: warm-up exited {code}")
        return problems

    def check(self, op, code):
        if code != 0:
            return [f"{op.key}: exit code {code}"], 0
        problems, rejected = [], 0
        for output in op.outputs:
            try:
                text = output.read_text(encoding="utf-8")
            except OSError as err:
                problems.append(f"{output.name}: no CSV ({err!r})")
                continue
            found, count = check_sweep_csv(text, self.sweep_vars, TRIALS)
            rejected += count
            if self.default_seed:
                path = REFERENCE_DIR / self.name / output.name
                if path.is_file():
                    found += compare_csv(text, path.read_text(encoding="utf-8"))
                else:
                    found.append("no reference")
            problems += [f"{output.name}: {p}" for p in found]
        return problems, rejected

    def record(self, op):
        return {output.name: output.read_text(encoding="utf-8") for output in op.outputs}

    def cold_argv(self):
        return _resized(self.ops[0].argv, 1, self.workdir / "cold.csv")


class SweepNoise(_Sweep):
    name = "sweep-noise"
    # The CLI's default --distribution both --targets both runs every pair
    # and writes one CSV per pair, named after --output.
    COMBOS = [(d, t) for d in ("uniform", "gaussian") for t in ("rotation", "rotation-translation")]

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        level = 0.03
        if not self.default_seed:
            level = round(0.03 * random.Random(seed).uniform(0.9, 1.1), 6)
        self.sweep_vars = [level]
        trials = TRIALS * len(self.COMBOS)
        self.ops.append(Op(
            "sweep-noise",
            ("simulate", "--levels", repr(level), "--trials", str(TRIALS), "--seed", "0",
             "--output", str(workdir / "noise.csv")),
            tuple(workdir / f"noise_{d}_{t}.csv" for d, t in self.COMBOS),
            trials, trials * len(METHODS),
        ))


class SweepCount(_Sweep):
    name = "sweep-count"

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        middle = 5 if self.default_seed else random.Random(seed).randint(3, 8)
        self.sweep_vars = [2, middle, 9]
        output = workdir / "count.csv"
        self.ops.append(Op(
            "sweep-count",
            ("simulate", "--motions", ",".join(map(str, self.sweep_vars)),
             "--trials", str(TRIALS), "--seed", "6", "--distribution", "gaussian",
             "--targets", "rotation-translation", "--output", str(output)),
            (output,), TRIALS * len(self.sweep_vars), TRIALS * len(self.sweep_vars) * len(METHODS),
        ))


WORKLOADS = {cls.name: cls for cls in (Calibrate, SweepNoise, SweepCount)}
