"""Time the solvers on one motion-count sweep block per motion count.

For n = 2, 5, 9 and 30, builds one block of motion-count-study trials: J = 1024 // n
trials of ``default_scenario(n, 0)`` at the count-study noise (Gaussian,
on rotation and translation), drawn as a sweep with seed 0 draws its first
point.  It times the block's construction from its draws,
``simulate._perturbed_constraints`` (which checks every rotation through
``ConstraintSet.from_motions``), and on the block
``solvers.axis_alignment_matrix``, ``solvers._closed_form`` (with its
translation SVD) and, from the closed-form start, ``solvers._nonlinear``,
each best of 15 runs.  The JSON file records, per n, J, those times in ms,
and the mean and max LM iterations over the block's solved rows, plus the
machine.

    python3 tools/bench_lm_blocks.py --out BENCH_lm_blocks.json

BLAS and OpenMP are pinned to one thread, as in ``perfbench``.  Runs from
any checkout; it imports ``handeye`` from that checkout's ``src/``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import handeye.simulate as sim  # noqa: E402
from handeye import solvers  # noqa: E402

MOTIONS = (2, 5, 9, 30)
REPEATS = 15


def count_block(n: int) -> tuple[tuple, np.ndarray]:
    """The arguments and the draws of ``simulate._perturbed_constraints`` for
    the first block of count-study trials at n motions, drawn from the
    streams of point 0 at seed 0."""
    args = (
        sim.default_scenario(n, 0),
        sim.Distribution.GAUSSIAN,
        sim.COUNT_ROTATION_LEVEL,
        sim.COUNT_TRANSLATION_LEVEL,
    )
    ids = np.arange(max(1, sim._BLOCK_MOTIONS // n), dtype=np.uint64)
    return args, sim._philox_random(sim._stream_keys(0, 0, ids), sim._trial_draw_count(*args))


def best_ms(run) -> tuple[float, object]:
    """The best of ``REPEATS`` timed calls of ``run``, in ms, and its result."""
    times = []
    for _ in range(REPEATS):
        begin = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - begin)
    return round(1e3 * min(times), 3), result


def measure(n: int) -> dict:
    args, draws = count_block(n)
    constraints_ms, cs = best_ms(lambda: sim._perturbed_constraints(*args, draws))
    alignment_ms, _ = best_ms(lambda: solvers.axis_alignment_matrix(cs))
    closed_form_ms, start = best_ms(
        lambda: solvers._closed_form(cs, solvers._translation_svd(cs))
    )
    nonlinear_ms, batch = best_ms(lambda: solvers._nonlinear(cs, start))
    iterations = batch.iterations[batch.ok]
    return {
        "n": n,
        "J": len(cs.camera_rotation),
        "nonlinear_ms_best": nonlinear_ms,
        "closed_form_ms_best": closed_form_ms,
        "perturbed_constraints_ms_best": constraints_ms,
        "axis_alignment_matrix_ms_best": alignment_ms,
        "lm_iterations_mean": round(float(np.mean(iterations)), 2),
        "lm_iterations_max": int(np.max(iterations)),
    }


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("BENCH_lm_blocks.json"))
    args = parser.parse_args(argv)
    blocks = [measure(n) for n in MOTIONS]
    result = {
        "what": (
            "simulate._perturbed_constraints, and solvers.axis_alignment_matrix, "
            f"_closed_form and _nonlinear, on one count-study block per n, best of {REPEATS}"
        ),
        "machine": machine(),
        "blocks": blocks,
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    for block in blocks:
        print(json.dumps(block))
    return 0


if __name__ == "__main__":
    sys.exit(main())
