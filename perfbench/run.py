"""Benchmark of the handeye CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload calibrate --seed 0 --seconds 30 --trace 0

Untraced runs (``--trace 0``) drive only ``handeye.cli.main`` in this
process, plus ``python -m handeye.cli`` subprocesses for cold start, and
report the end-to-end metrics.  Traced runs (``--trace 1``) run the same
cycles twice, untraced and then with the wrappers of ``tracing.py``
installed, and report the per-layer metrics plus the tracing overhead.
Spans go to ``.perfbench_out/`` at the end of a traced run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the machine and the run's sample counts.  BLAS and OpenMP are
pinned to one thread.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

SETUP_REPS = 10
COLD_RUNS = 16
IMPORT_RUNS = 5
SUBPROCESS_TIMEOUT_S = 60


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class Tally:
    """Outcome of a measured phase."""

    op_ms: list[float] = field(default_factory=list)  # per trial, one sample per call
    busy_s: float = 0.0
    trials: int = 0
    cycles: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ops_per_s(self) -> float:
        return self.trials / self.busy_s


def import_cli(src: Path):
    """Fresh import of ``handeye.cli`` from ``src``."""
    for name in [n for n in sys.modules if n == "handeye" or n.startswith("handeye.")]:
        del sys.modules[name]
    cli = importlib.import_module("handeye.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"handeye.cli imported from {cli.__file__}, not from {src}")
    return cli


def measure(cli, workload: Workload, seconds: float | None = None,
            cycles: int | None = None) -> Tally:
    """Exactly ``cycles`` whole cycles of the workload, or as many as fit
    in ``seconds``: at least one, and no further cycle once another of the
    last one's length would end past the deadline."""
    tally = Tally()
    start = time.perf_counter()
    with open(os.devnull, "w") as sink:
        while True:
            cycle_start = time.perf_counter()
            for op in workload.ops:
                for path in op.outputs:
                    path.unlink(missing_ok=True)
                problems: list[str] = []
                began = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(sink):
                        code = cli.main(list(op.argv))
                except Exception as err:  # counted as a failed operation
                    code = None
                    problems.append(f"{op.key}: uncaught {type(err).__name__}: {err}")
                elapsed = time.perf_counter() - began
                tally.busy_s += elapsed
                tally.trials += op.trials
                tally.op_ms.append(1e3 * elapsed / op.trials)
                rejected = 0
                if code is not None:
                    problems, rejected = workload.check(op, code)
                tally.attempted += op.solves
                tally.failed += op.solves if problems else rejected
                tally.problems += problems
            tally.cycles += 1
            now = time.perf_counter()
            if cycles is not None:
                if tally.cycles >= cycles:
                    return tally
            elif 2 * now - cycle_start - start > seconds:
                return tally


def _subprocess_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cold_start_ms(argv: list[str], runs: int) -> tuple[list[float], list[str]]:
    """Wall time of ``python -m handeye.cli <argv>`` in fresh interpreters."""
    times, problems = [], []
    for _ in range(runs):
        began = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "handeye.cli", *argv], cwd=ROOT, env=_subprocess_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=SUBPROCESS_TIMEOUT_S,
        )
        times.append(1e3 * (time.perf_counter() - began))
        if proc.returncode != 0:
            problems.append(f"cold start exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
    return times, problems


def import_ms(runs: int) -> float:
    """Median time to import ``handeye.cli`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import handeye.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(runs):
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=_subprocess_env(),
            capture_output=True, text=True, check=True, timeout=SUBPROCESS_TIMEOUT_S,
        ).stdout
        times.append(1e3 * float(out))
    return statistics.median(times)


def machine_info() -> dict:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = None
    with contextlib.suppress(Exception):
        config = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: config.get(key) for key in ("name", "version", "openblas configuration")}
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up(workload: Workload, reps: int) -> tuple[object, list[float], list[str]]:
    """``reps`` set-ups, each a fresh import of ``handeye.cli`` plus the
    workload's set-up calls.  Returns the last import, the set-up times and
    the problems found."""
    times, problems = [], []
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for _ in range(reps):
            began = time.perf_counter()
            cli = import_cli(ROOT / "src")
            problems += workload.setup(cli.main)
            times.append(time.perf_counter() - began)
    return cli, times, problems


def run_untraced(args, workload: Workload) -> tuple[dict, list[Tally], dict]:
    # Set-ups and cold starts run half before and half after the timed
    # phase, so that their medians span the same stretch of time as the
    # in-process figures.
    cli, setup_s, problems = set_up(workload, SETUP_REPS // 2)
    cold, found = cold_start_ms(workload.cold_argv(), COLD_RUNS // 2)
    problems += found
    tally = measure(cli, workload, seconds=args.seconds)
    cold_after, found = cold_start_ms(workload.cold_argv(), COLD_RUNS - COLD_RUNS // 2)
    cold += cold_after
    problems += found
    _, setup_after, found = set_up(workload, SETUP_REPS - SETUP_REPS // 2)
    setup_s += setup_after
    tally.problems += problems + found
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "op_ms_p50": (percentile(tally.op_ms, 50), "ms"),
        "op_ms_p90": (percentile(tally.op_ms, 90), "ms"),
        "ops_per_s": (tally.ops_per_s, "1/s"),
        "cold_ms_p50": (statistics.median(cold), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return metrics, [tally], {"cold_runs": len(cold), "setup_reps": len(setup_s)}


def run_traced(args, workload: Workload) -> tuple[dict, list[Tally], dict]:
    """The same cycles untraced and then traced; per-layer metrics come
    from the traced half, the overhead from comparing the two."""
    cli, _, problems = set_up(workload, 1)
    untraced = measure(cli, workload, seconds=args.seconds / 2)
    untraced.problems += problems
    tracer = tracing.Tracer().install()
    try:
        traced = measure(cli, workload, cycles=untraced.cycles)
    finally:
        tracer.restore()
    spans = tracer.spans
    layers = tracing.layer_metrics(spans, tracer.counts, traced.trials)
    metrics = {name: (value, tracing.unit_of(name)) for name, value in layers.items()}
    metrics.update({
        "cli.import_ms": (import_ms(IMPORT_RUNS), "ms"),
        "trace.overhead.ops_per_s_pct": (
            100.0 * (untraced.ops_per_s / traced.ops_per_s - 1.0), "%"),
        "trace.overhead.op_ms_p50_pct": (
            100.0 * (percentile(traced.op_ms, 50) / percentile(untraced.op_ms, 50) - 1.0), "%"),
        "trace.absent": (float(len(tracer.absent)), "count"),
        "failed_share": (
            (untraced.failed + traced.failed) / (untraced.attempted + traced.attempted), "ratio"),
    })
    trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    trace_path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "machine": machine_info(),
        "absent": tracer.absent, "counts": dict(tracer.counts),
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "spans": spans,
    }))
    detail = {"trace": str(trace_path.relative_to(ROOT)), "absent": tracer.absent}
    return metrics, [untraced, traced], detail


def run(args, workdir: Path) -> tuple[dict, dict]:
    workload = WORKLOADS[args.workload](ROOT, args.seed, workdir)
    if args.trace:
        metrics, tallies, detail = run_traced(args, workload)
    else:
        metrics, tallies, detail = run_untraced(args, workload)
    problems = [problem for tally in tallies for problem in tally.problems]
    detail.update(
        cycles=[t.cycles for t in tallies],
        samples=[len(t.op_ms) for t in tallies],
        trials=[t.trials for t in tallies],
        problems=problems[:20],
    )
    result = {
        "correct": not problems,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/handeye/cli.py", "samples/synthetic_with_truth.yaml")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {ROOT} is not a handeye checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = OUT_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, detail = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"machine": machine_info(), "detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
