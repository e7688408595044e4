"""Regenerate the reference outputs in ``reference/`` from the current code.

Runs one cycle of each named workload (all by default) at the default
seed and stores what the program wrote: the quaternion and translation of
every ``calibrate`` solution, and every sweep CSV.  The committed files
were made by this script at the commit that introduced the benchmark;
regenerate them only when a change is meant to alter the outputs.

    python3 perfbench/make_reference.py [workload ...]
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from workloads import DEFAULT_SEED, REFERENCE_DIR, WORKLOADS


def main(names) -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    for name in names or sorted(WORKLOADS):
        workdir = run.OUT_DIR / f"reference-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            workload = WORKLOADS[name](run.ROOT, DEFAULT_SEED, workdir)
            cli = run.import_cli(run.ROOT / "src")
            workload.setup(cli.main)
            run.measure(cli, workload, cycles=1)
            records = {op.key: workload.record(op) for op in workload.ops}
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if name == "calibrate":
            path = REFERENCE_DIR / "calibrate.json"
            path.write_text(json.dumps(records, indent=1) + "\n")
        else:
            (REFERENCE_DIR / name).mkdir(parents=True, exist_ok=True)
            for files in records.values():
                for filename, text in files.items():
                    (REFERENCE_DIR / name / filename).write_text(text)
        print(f"{name}: {len(records)} reference outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
