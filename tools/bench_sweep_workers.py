"""Time the benchmark's sweep commands with one worker and with the default.

Runs the ``handeye simulate`` calls of the ``sweep-noise`` and
``sweep-count`` workloads at seed 0 (1000 trials per point) through
``handeye.cli.main`` in this process, alternately with the sweep held to
the calling process (``simulate._pool_size`` forced to 1) and with the
worker count the sweep picks itself, which side goes first alternating
from round to round.  The JSON file records, per command and side, the
median and quartiles of trials/s over the rounds, the worker count, and
whether both sides wrote the same CSV bytes, plus the machine.  In a
checkout whose sweep has no ``_pool_size`` both sides run the same serial
code.

    python3 tools/bench_sweep_workers.py --out BENCH_sweep_workers.json

BLAS and OpenMP are pinned to one thread, as in ``perfbench``.  Runs from
any checkout; it imports ``handeye`` from that checkout's ``src/``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tools"))

import handeye.simulate as sim  # noqa: E402
from bench_lm_blocks import machine  # noqa: E402
from handeye.cli import EXIT_OK, main as cli_main  # noqa: E402

# (name, argv without --output, output file name, trials per call)
COMMANDS = (
    ("sweep-noise", ["simulate", "--levels", "0.03", "--trials", "1000", "--seed", "0"],
     "noise.csv", 4000),
    ("sweep-count", ["simulate", "--motions", "2,5,9", "--trials", "1000", "--seed", "6",
                     "--distribution", "gaussian", "--targets", "rotation-translation"],
     "count.csv", 3000),
)


@contextlib.contextmanager
def workers(force: int | None, seen: set):
    """Sweeps with ``force`` workers, or with the count the sweep picks when
    None; every count used is added to ``seen``."""
    pick = getattr(sim, "_pool_size", None)
    if pick is None:
        seen.add(1)
        yield
        return

    def recorded(*args):
        count = pick(*args) if force is None else force
        seen.add(count)
        return count

    sim._pool_size = recorded
    try:
        yield
    finally:
        sim._pool_size = pick


def run(argv: list[str], workdir: Path, output: str) -> tuple[float, str]:
    """Seconds one CLI call takes, and the sha256 of the CSVs it wrote."""
    for path in workdir.iterdir():
        path.unlink()
    began = time.perf_counter()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code = cli_main([*argv, "--output", str(workdir / output)])
    elapsed = time.perf_counter() - began
    if code != EXIT_OK:
        raise SystemExit(f"{argv} exited {code}")
    digest = hashlib.sha256()
    for path in sorted(workdir.iterdir()):
        digest.update(path.read_bytes())
    return elapsed, digest.hexdigest()


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 1), "q1": round(q1, 1), "q3": round(q3, 1)}


def measure(name: str, argv: list[str], output: str, trials: int, rounds: int) -> dict:
    sides = {"one_worker": 1, "default": None}
    rates = {side: [] for side in sides}
    digests, seen = set(), {side: set() for side in sides}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        run(argv, workdir, output)  # warm-up
        for k in range(rounds):
            for side in list(sides)[:: 1 if k % 2 == 0 else -1]:
                with workers(sides[side], seen[side]):
                    elapsed, digest = run(argv, workdir, output)
                rates[side].append(trials / elapsed)
                digests.add(digest)
    return {
        "command": name,
        "trials_per_call": trials,
        "workers": {side: sorted(counts) for side, counts in seen.items()},
        "one_worker_trials_per_s": quartiles(rates["one_worker"]),
        "default_trials_per_s": quartiles(rates["default"]),
        "median_ratio": round(
            statistics.median(rates["default"]) / statistics.median(rates["one_worker"]), 3
        ),
        "same_bytes": len(digests) == 1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("BENCH_sweep_workers.json"))
    parser.add_argument("--rounds", type=int, default=8)
    args = parser.parse_args(argv)
    commands = [measure(*command, args.rounds) for command in COMMANDS]
    result = {
        "what": (
            "trials/s of the seed-0 sweep-noise and sweep-count CLI calls in process, "
            f"one worker against the default worker count, {args.rounds} alternating rounds"
        ),
        "machine": {**machine(), "usable_cpus": len(os.sched_getaffinity(0))
                    if hasattr(os, "sched_getaffinity") else None},
        "commands": commands,
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    for command in commands:
        print(json.dumps(command))
    return 0


if __name__ == "__main__":
    sys.exit(main())
