"""Run the benchmark over several seeds and summarise it in one JSON file.

For each workload of BENCHMARK.json, at its ``run_seconds``: one
untraced run per seed, then one traced run at the first seed.  The summary holds each end-to-end metric's median, quartiles
and spread (interquartile distance over the median, the figure the bounds
in BENCHMARK.json are set against), the traced run's per-layer metrics,
the machine, and every run's raw result.

    python3 perfbench/summarize.py --seeds 1-10 --out .perfbench_out/summary.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=900,
    )
    info, result = proc.stdout.splitlines()[-2:]
    return json.loads(info), json.loads(result)


def summarize(workloads, seeds, seconds) -> dict:
    summary = {"seeds": seeds, "run_seconds": seconds, "workloads": {}}
    # Seeds in the outer loop, so that each workload's runs are spread over
    # the whole set instead of one stretch of it: the host's speed drifts
    # over minutes.
    runs = {workload: [] for workload in workloads}
    for seed in seeds:
        for workload in workloads:
            info, result = _run(workload, seed, seconds, 0)
            runs[workload].append({"seed": seed, "result": result, "detail": info["detail"]})
            summary["machine"] = info["machine"]
            print(workload, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  file=sys.stderr, flush=True)
    for workload in workloads:
        metrics = {}
        first = runs[workload][0]["result"]["metrics"]
        for name in first:
            values = [run["result"]["metrics"][name]["value"] for run in runs[workload]]
            q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            metrics[name] = {
                "unit": first[name]["unit"],
                "median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            }
        _, traced = _run(workload, seeds[0], seconds, 1)
        summary["workloads"][workload] = {
            "correct": all(run["result"]["correct"] for run in runs[workload])
            and traced["correct"],
            "end_to_end": metrics,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "runs": runs[workload],
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = summarize([w["name"] for w in bench["workloads"]], args.seeds, bench["run_seconds"])
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
