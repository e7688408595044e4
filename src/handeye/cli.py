"""Command-line front end.

Subcommands::

    handeye generate   write a synthetic dataset (ground truth in metadata)
    handeye calibrate  solve a dataset with one method, write a solution doc
    handeye residuals  evaluate solution documents against a dataset
    handeye simulate   run stability sweeps, write CSV reports

Exit codes: 0 ok, 1 parse error, 2 schema error, 3 degenerate or
ill-conditioned input, 4 optimizer did not converge, 5 I/O error,
6 bad flags.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys
import warnings
from contextlib import contextmanager
from functools import partial
from pathlib import Path

from .datafiles import load_dataset, load_solution, save_dataset, save_solution
from .errors import (
    CalibrationError,
    FlagError,
    ParseError,
    SchemaError,
)
from .quaternion import axis_angle
from .simulate import (
    SCENARIOS,
    Distribution,
    Formulation,
    NoiseModel,
    NoiseTargets,
    ReportRow,
    motion_count_sweep,
    noise_sweep,
    synthetic_dataset,
)
from .solvers import Method, report_residuals, solve

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_SCHEMA = 2
EXIT_DEGENERATE = 3
EXIT_NO_CONVERGENCE = 4
EXIT_IO = 5
EXIT_FLAGS = 6

CSV_HEADER = "sweep_var,method,e_rot,e_tr,failed_trials"

DEFAULT_LEVELS = (0.01, 0.02, 0.03, 0.04, 0.05, 0.06)


def report_csv(rows: tuple[ReportRow, ...]) -> str:
    """Fixed-header CSV of a sweep's rows; bytes depend only on the data
    (adding 0.0 prints a -0.0 ``sweep_var`` as 0)."""
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(
            f"{row.sweep_var + 0.0:.12g},{row.method.value},"
            f"{row.e_rot:.12g},{row.e_tr:.12g},{row.failed_trials}"
        )
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise FlagError(message)


def seed(text: str) -> int:
    """A ``--seed`` value: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"need a non-negative integer, got {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="handeye", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset")
    gen.add_argument("--motions", type=int, default=4, help="number of motions (>= 2)")
    gen.add_argument("--seed", type=seed, default=0)
    gen.add_argument(
        "--formulation",
        choices=[f.value for f in Formulation],
        default=Formulation.CLASSICAL.value,
    )
    gen.add_argument("--noise-level", type=float, default=0.0, help="noise ratio, e.g. 0.02")
    gen.add_argument(
        "--noise-distribution",
        choices=[d.value for d in Distribution],
        default=Distribution.GAUSSIAN.value,
    )
    gen.add_argument(
        "--noise-targets",
        choices=[t.value for t in NoiseTargets],
        default=NoiseTargets.ROTATION_AND_TRANSLATION.value,
    )
    gen.add_argument("output", help="dataset path (YAML)")

    cal = sub.add_parser("calibrate", help="solve one dataset")
    cal.add_argument("input", help="dataset path")
    cal.add_argument(
        "--formulation",
        choices=[f.value for f in Formulation],
        default=None,
        help="must match the dataset when given",
    )
    cal.add_argument(
        "--method",
        choices=[m.value for m in Method],
        default=Method.NONLINEAR.value,
    )
    cal.add_argument("--output", default=None, help="solution path (YAML); default stdout")

    res = sub.add_parser("residuals", help="evaluate solutions against a dataset")
    res.add_argument("input", help="dataset path")
    res.add_argument("solutions", nargs="+", help="one or more solution documents")
    res.add_argument("--csv", default=None, help="also write the table as CSV")

    sim = sub.add_parser("simulate", help="stability sweeps")
    sim.add_argument(
        "--distribution",
        choices=[d.value for d in Distribution] + ["both"],
        default="both",
    )
    sim.add_argument(
        "--targets",
        choices=[t.value for t in NoiseTargets] + ["both"],
        default="both",
    )
    sim.add_argument("--levels", default=None, help="comma-separated noise ratios")
    sim.add_argument(
        "--motions", default=None, help="motion-count sweep, e.g. 2:9 or 2,4,9"
    )
    sim.add_argument("--trials", type=int, default=1000)
    sim.add_argument("--seed", type=seed, default=0)
    sim.add_argument(
        "--formulation",
        choices=[f.value for f in Formulation],
        default=Formulation.CLASSICAL.value,
    )
    sim.add_argument("--output", default=None, help="CSV path; default stdout")
    return parser


def _parse_levels(text: str) -> list[float]:
    try:
        levels = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        levels = []
    if not levels or not all(math.isfinite(level) and level >= 0 for level in levels):
        raise FlagError(f"--levels: need comma-separated finite ratios >= 0, got {text!r}")
    return levels


def _parse_counts(text: str) -> range | list[int]:
    """The motion counts of ``lo:hi`` (a lazy range, checked from its
    ends) or of a comma-separated list."""
    form = f"--motions: need lo:hi or comma-separated integers >= 2, got {text!r}"
    try:
        if ":" in text:
            lo, hi = text.split(":")
            counts = range(int(lo), int(hi) + 1)
        else:
            counts = [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise FlagError(form) from None
    if not counts:
        raise FlagError(f"--motions: {text!r} is empty")
    if (counts[0] if isinstance(counts, range) else min(counts)) < 2:
        raise FlagError(form)
    return counts


def _cmd_generate(args) -> int:
    if args.motions < 2:
        raise FlagError(f"--motions: need at least 2, got {args.motions}")
    if not (math.isfinite(args.noise_level) and args.noise_level >= 0):
        raise FlagError("--noise-level: must be finite and non-negative")
    noise = None
    if args.noise_level > 0:
        noise = NoiseModel(
            distribution=Distribution(args.noise_distribution),
            level=args.noise_level,
            targets=NoiseTargets(args.noise_targets),
            seed=args.seed,
        )
    dataset = synthetic_dataset(args.motions, args.seed, Formulation(args.formulation), noise)
    save_dataset(dataset, args.output)
    print(f"wrote {args.output}: {len(dataset.hand_poses)} positions ({args.formulation})")
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    dataset = load_dataset(args.input)
    if args.formulation is not None and Formulation(args.formulation) != dataset.formulation:
        raise SchemaError(
            f"--formulation {args.formulation} does not match dataset "
            f"({dataset.formulation.value})"
        )
    solution = solve(Method(args.method), dataset.constraints())
    if args.output is not None:
        save_solution(solution, args.output)
    axis, angle = axis_angle(solution.rotation)
    w, x, y, z = solution.rotation
    print(f"method:               {solution.method.value}")
    print(f"quaternion (w x y z): {w:.9f} {x:.9f} {y:.9f} {z:.9f}")
    print(f"axis / angle:         [{axis[0]:.6f} {axis[1]:.6f} {axis[2]:.6f}] / "
          f"{angle:.6f} rad")
    print("translation (mm):     "
          + " ".join(f"{val:.4f}" for val in solution.translation))
    print(f"rotation residual:    {solution.rotation_residual:.6e}")
    print(f"translation residual: {solution.translation_residual:.6e}")
    print(f"iterations:           {solution.iterations}")
    if not solution.converged:
        print("warning: optimizer hit its iteration cap before converging", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _cmd_residuals(args) -> int:
    dataset = load_dataset(args.input)
    constraints = dataset.constraints()
    rows = []
    for path in args.solutions:
        solution = load_solution(path)
        rot, tr = report_residuals(constraints, solution)
        rows.append((solution.method.value, rot, tr))
    name_width = max(len("method"), max(len(r[0]) for r in rows))
    header = f"{'method':<{name_width}}  {'rotation':>12}  {'translation':>12}"
    print(header)
    print("-" * len(header))
    for name, rot, tr in rows:
        print(f"{name:<{name_width}}  {rot:>12.4g}  {tr:>12.4g}")
    if args.csv is not None:
        lines = ["method,rotation_residual,translation_residual"]
        lines += [f"{name},{rot:.12g},{tr:.12g}" for name, rot, tr in rows]
        Path(args.csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    if args.levels is not None and args.motions is not None:
        raise FlagError("--levels and --motions are mutually exclusive")
    if args.trials < 1:
        raise FlagError("--trials: need at least 1")
    # "both" is every member, in definition order
    distributions = (
        list(Distribution) if args.distribution == "both" else [Distribution(args.distribution)]
    )
    targets = list(NoiseTargets) if args.targets == "both" else [NoiseTargets(args.targets)]
    build = SCENARIOS[Formulation(args.formulation)]
    if args.motions is not None:
        scenarios = [build(n, args.seed) for n in _parse_counts(args.motions)]
        sweep = partial(motion_count_sweep, scenarios)
    else:
        levels = _parse_levels(args.levels) if args.levels is not None else list(DEFAULT_LEVELS)
        sweep = partial(noise_sweep, build(2, args.seed), levels)
    combos = [(d, t) for d in distributions for t in targets]
    paths = []
    if args.output is not None:
        base = Path(args.output)
        if base.is_dir():
            # never an output, and "", "." and "/" are directories too
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), args.output)
        if len(combos) > 1 and base.exists() and not base.is_file():
            # the per-pair files would land beside it, e.g. /dev/null_uniform_rotation
            raise OSError(
                f"--output {args.output}: not a regular file, so it cannot name "
                "one file per (distribution, targets) pair"
            )
        paths = [base] if len(combos) == 1 else [
            base.with_name(f"{base.stem}_{d.value}_{t.value}{base.suffix}") for d, t in combos
        ]
    with _writable(paths):
        # one call solves every combination's blocks, on one pool
        reports = sweep(combos, args.trials, args.seed)
        for k, ((dist, targ), rows) in enumerate(zip(combos, reports)):
            csv_text = report_csv(rows)
            if args.output is None:
                print(f"# distribution={dist.value} targets={targ.value}")
                print(csv_text, end="")
                continue
            paths[k].write_text(csv_text, encoding="utf-8")
            if len(paths) > 1:
                print(f"wrote {paths[k]}")
    return EXIT_OK


@contextmanager
def _writable(paths: list[Path]):
    """Open each of ``paths`` for appending before any work is done, so an
    unwritable one fails at once; an existing file keeps its content.  On
    the way out, each file created here that is still empty is removed, so
    a run that fails leaves none behind."""
    created = []
    try:
        for path in paths:
            existed = path.exists()
            open(path, "a", encoding="utf-8").close()
            if not existed:
                created.append(path)
        yield
    finally:
        for path in created:
            if path.stat().st_size == 0:
                path.unlink()


_COMMANDS = {
    "generate": _cmd_generate,
    "calibrate": _cmd_calibrate,
    "residuals": _cmd_residuals,
    "simulate": _cmd_simulate,
}

# Exit code of each error type; the first type an error is an instance of
# decides, so subclasses of CalibrationError come before it.
_EXIT_CODES = (
    (FlagError, EXIT_FLAGS),
    (ParseError, EXIT_PARSE),
    (SchemaError, EXIT_SCHEMA),
    (CalibrationError, EXIT_DEGENERATE),
    (OSError, EXIT_IO),
)


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            args = parser.parse_args(argv)
            return _COMMANDS[args.command](args)
        except (CalibrationError, OSError) as err:
            print(f"error: {err}", file=sys.stderr)
            return next(code for kind, code in _EXIT_CODES if isinstance(err, kind))


if __name__ == "__main__":
    sys.exit(main())
