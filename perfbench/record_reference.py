"""Record the reference artifacts of the ``experiments`` workload.

    python3 perfbench/record_reference.py

Run from the root of a qperm checkout.  It runs every experiment spec of the
default seed once, with the workload's own artifact checks, and writes
``perfbench/reference_seed0.json``, which the benchmark compares each
artifact against (numbers within 1e-10 absolute, everything else exactly).
Re-record only in a change that means to alter the artifacts, and say why.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # as in the benchmark's workers, before numpy loads

import workloads  # noqa: E402  (needs src on the path first)


def main() -> int:
    work = Path(tempfile.mkdtemp(prefix="perfbench-ref-", dir=ROOT))
    try:
        experiments = workloads.Experiments(workloads.DEFAULT_SEED, False, work,
                                            record=True)
        for task in experiments.tasks:
            failure = task.check(task.run())
            if failure:
                print(f"error: {task.label}: {failure}", file=sys.stderr)
                return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    workloads.REFERENCE.write_text(json.dumps(experiments.recorded, sort_keys=True,
                                              separators=(",", ":")) + "\n")
    print(f"wrote {workloads.REFERENCE} ({len(experiments.recorded)} specs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
