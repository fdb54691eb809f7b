"""Harness self-test.

    python3 perfbench/selftest.py

Run from the root of a qperm checkout.  For each workload it runs one small
pass in each of two workers (``--smoke``), untraced and traced, and checks
that the run is correct (which for a traced run includes both workers'
traced passes making the same calls) and that the metric names and units
printed are exactly those declared in ``BENCHMARK.json``.  It then checks that the benchmark refuses to run, with
a non-zero exit and no result line, from a directory holding only
``BENCHMARK.json`` and the benchmark's own files.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(["--workload", workload, "--seed", "0", "--seconds", "0",
                        "--trace", str(trace), "--smoke"])
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != declared[trace]:
                missing = sorted(set(declared[trace]) - set(printed))
                extra = sorted(set(printed) - set(declared[trace]))
                problems.append(f"{where}: metrics differ; missing {missing}, "
                                f"undeclared {extra}, or units differ")
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: {result['failed']} failed tasks\n{proc.stdout}")
            print(f"{where}: {len(printed)} metrics, {result['attempted']} tasks")

    bare = Path(tempfile.mkdtemp(prefix="perfbench-bare-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", spec["workloads"][0]["name"], "--seed", "0",
                    "--seconds", "1", "--trace", "0"], cwd=bare)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            problems.append("the benchmark ran without the program's source")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
