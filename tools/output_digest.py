"""Print the sha256 of every seed-0 output file, to check that a change keeps
them byte-identical.

Writes, into a temporary directory and through ``handeye.cli.main``:

* the seed-0 ``sweep-noise`` CSVs (4) and ``sweep-count`` CSV (1) that
  ``perfbench/workloads.py`` issues;
* the standard output of that ``sweep-noise`` command run without
  ``--output`` (1), each pair's CSV under its ``# distribution=...`` line;
* a perspective motion-count sweep, ``--motions 2,3 --trials 300 --seed 2``
  (4 CSVs);
* the ten generated datasets of the ``calibrate`` corpus (classical and
  perspective, n = 2, 5, 10, 20, 30);
* the 39 ``calibrate`` solutions of those datasets and the three samples,
  one per method;
* the 13 ``residuals --csv`` tables of those datasets, each over its three
  solutions, so every solution is read back through ``load_solution``.

It prints one ``<sha256>  <file>`` line per file, sorted by name.  With
``--against FILE`` it compares them with such a list saved before, names
every file that differs, is missing or is new, and exits 1 unless all 72
match:

    python3 tools/output_digest.py > digests.txt
    (change the code)
    python3 tools/output_digest.py --against digests.txt

BLAS and OpenMP are pinned to one thread, as in ``perfbench``.  It imports
``handeye`` from the ``src/`` of the checkout it sits in; copy it into
another checkout to digest that checkout's outputs.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from handeye.cli import EXIT_OK, main  # noqa: E402

SWEEPS = (
    ["--levels", "0.03", "--trials", "1000", "--seed", "0", "--output", "noise.csv"],
    ["--motions", "2,5,9", "--trials", "1000", "--seed", "6", "--distribution", "gaussian",
     "--targets", "rotation-translation", "--output", "count.csv"],
    ["--motions", "2,3", "--trials", "300", "--seed", "2", "--formulation", "perspective",
     "--output", "perspective.csv"],
)
SAMPLES = ("classical", "perspective", "synthetic_with_truth")
SYNTHETIC = [(form, n) for form in ("classical", "perspective") for n in (2, 5, 10, 20, 30)]
METHODS = ("tsai-lenz", "closed-form", "nonlinear")


def _run(argv: list[str]) -> str:
    """``handeye argv``; returns what it printed to stdout."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    if code != EXIT_OK:
        raise SystemExit(f"handeye {' '.join(argv)} exited {code}")
    return stdout.getvalue()


def write_outputs(out: Path) -> None:
    """Every output file listed above, written into ``out``."""
    for argv in SWEEPS:
        _run(["simulate", *argv[:-1], str(out / argv[-1])])
    noise_stdout = _run(["simulate", *SWEEPS[0][:-2]])
    (out / "noise_stdout.txt").write_text(noise_stdout, encoding="utf-8")
    datasets = [ROOT / "samples" / f"{name}.yaml" for name in SAMPLES]
    for index, (form, n) in enumerate(SYNTHETIC):
        path = out / f"{form}_n{n}.yaml"
        _run(["generate", "--motions", str(n), "--seed", str(index), "--formulation", form,
              "--noise-level", "0.01", "--noise-distribution", "gaussian",
              "--noise-targets", "rotation-translation", str(path)])
        datasets.append(path)
    for path in datasets:
        solutions = [str(out / f"solution_{path.stem}_{method}.yaml") for method in METHODS]
        for method, solution in zip(METHODS, solutions):
            _run(["calibrate", str(path), "--method", method, "--output", solution])
        _run(["residuals", str(path), *solutions, "--csv", str(out / f"residuals_{path.stem}.csv")])


def digests() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        write_outputs(Path(tmp))
        return {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(Path(tmp).iterdir())
        }


def _read(path: Path) -> dict[str, str]:
    saved = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        digest, name = line.split()
        saved[name] = digest
    return saved


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, help="digest list to compare with")
    args = parser.parse_args(argv)
    mine = digests()
    if args.against is None:
        for name, digest in mine.items():
            print(f"{digest}  {name}")
        return 0
    saved = _read(args.against)
    differ = [
        f"{name}: {'missing' if name not in mine else 'new' if name not in saved else 'differs'}"
        for name in sorted(set(mine) | set(saved))
        if mine.get(name) != saved.get(name)
    ]
    for line in differ:
        print(line)
    matched = sum(mine.get(name) == digest for name, digest in saved.items())
    print(f"{matched} of {len(saved)} files match", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(run())
