"""One benchmark process: set up a workload, run timed passes, report JSON.

Started by ``run.py`` in a fresh interpreter; not meant to be run by hand.
Set-up time runs from the moment the parent started this process
(``--spawned-at``, a ``time.monotonic`` stamp, which is system-wide on
Linux) to the start of the first timed task.

With ``--trace 0`` it runs untraced passes.  With ``--trace 1`` it runs
pairs of passes, one untraced and one traced, so the two can be compared
for the tracing overhead.  A new pass (or pair) starts only while the
previous one would still end inside ``--seconds``; the first always runs.
Before each task, and after the last, it runs the host-speed probe
(``hostspeed.py``), outside the tasks' timing; timings are reported raw
with the probe times beside them, except span times, which are scaled here
by the pass's mean probe.
Traced passes whose call counts differ count as a failure.
The last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path
from time import perf_counter

MAX_REPORTED_FAILURES = 20


def run_pass(workload, probe, tracer=None):
    """Run every task once.

    Returns (wall, task latencies, probe times, failures, counters); there
    is one probe before each task and one after the last, and the wall time
    is the sum of the tasks' run and check times, so the probes are not in
    it.
    """
    for key in workload.counters:
        workload.counters[key] = 0
    wall = 0.0
    latencies, probes, failures = [], [], []
    if tracer is not None:
        tracer.install()
    try:
        for task in workload.tasks:
            probes.append(probe())
            start = perf_counter()
            try:
                output = task.run()
            except Exception as exc:  # a raising task is a failed task, not a dead run
                latencies.append(perf_counter() - start)
                wall += latencies[-1]
                failures.append(f"{task.label}: raised {type(exc).__name__}: {exc}")
                continue
            latencies.append(perf_counter() - start)
            try:
                message = task.check(output)
            except Exception as exc:
                message = f"check raised {type(exc).__name__}: {exc}"
            wall += perf_counter() - start
            if message:
                failures.append(f"{task.label}: {message}")
        probes.append(probe())
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, latencies, probes, failures, dict(workload.counters)


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)

    root = Path(args.root)
    sys.path.insert(0, str(root / "src"))
    import hostspeed
    import layers
    import workloads

    workdir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, workdir)
        setup_s = time.monotonic() - args.spawned_at
        passes, failures = [], []
        attempted = 0
        spans: dict = {}
        traced_calls = []
        t_measure = perf_counter()
        while True:
            t_unit = perf_counter()
            for traced in ((False, True) if args.trace else (False,)):
                tracer = layers.Tracer() if traced else None
                wall, lat, probes, fails, counters = run_pass(
                    workload, hostspeed.probe, tracer)
                attempted += len(workload.tasks)
                failures.extend(fails)
                passes.append({"traced": traced, "wall": wall, "counters": counters,
                               "task_s": lat, "probe_s": probes})
                if traced:
                    table = layers.span_table(tracer)
                    traced_calls.append({k: v["calls"] for k, v in table.items()})
                    scale = hostspeed.REFERENCE_PROBE_S * len(probes) / sum(probes)
                    layers.merge_spans(spans, table, scale)
            now = perf_counter()
            if now - t_measure + (now - t_unit) > args.seconds:
                break
        measure_s = perf_counter() - t_measure
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    if any(c != traced_calls[0] for c in traced_calls):
        failures.append("call counts differ between traced passes")
    result = {
        "setup_s": setup_s,
        "measure_s": measure_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": passes,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:MAX_REPORTED_FAILURES],
        "spans": spans,
        "calls_per_pass": traced_calls[0] if traced_calls else {},
    }
    sys.stdout.write("\n" + json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
