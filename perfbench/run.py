"""qperm benchmark: three workloads through the public API, end to end and
layer by layer.

    python3 perfbench/run.py --workload construct|sample|experiments \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a qperm checkout (it imports ``src/qperm``).  Each run
starts WORKERS fresh interpreters one after another; each sets the workload
up from the seed and runs timed passes over its fixed task list, every
output checked, for its share of ``--seconds`` (at least one pass).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``BENCHMARK.json``).  Every metric is printed as
``name = value unit``, an ``environment`` JSON line follows (commit, source
digest and line count, versions, BLAS, nproc, seed, pass and sample
counts), and the last line is ``{"correct", "attempted", "failed",
"metrics"}``.

End-to-end metrics:

- ``setup_s``: median over workers of interpreter start to first timed task
  (imports; in ``sample`` also the groups, classical versions and census);
- ``wall_s``: median over the run's passes of the wall time of one pass
  over the task list, every output checked;
- ``task_ms_p50`` / ``task_ms_p90``: per-task latency, median and 90th
  percentile (linear interpolation) over the task list, each task taken at
  its median over the run's passes;
- ``peak_rss_mb``: median over workers of the process's peak resident set;
- ``pass_ratio``: tasks whose output check held / tasks attempted.  This is
  1 - fail_ratio: a metric that is 0 on a healthy run cannot carry a
  relative bound, and ``failed`` in the last line carries the failures.

Every time is scaled by the host-speed probe (``hostspeed.py``): a task's
latency by :func:`task_scales`, a pass's wall time by the latency-weighted
mean of its tasks' scales, a worker's set-up time by all of that worker's
probes.  The environment line gives the unscaled pass
walls and set-up times and the probe times.

Per-layer metrics come from wrapping qperm's public functions from outside
(``layers.py``): ``<span>.calls`` and ``<span>.self_s`` per traced pass,
``<module>.self_s`` summed over a module's spans, the span-specific counters
listed there, ``trace.overhead_ratio`` (median traced pass / median
untraced pass - 1) and ``trace.coverage`` (summed self time / traced pass
wall time).  Traced passes whose call counts differ, within a worker or
between workers, count as a failed check.

BLAS runs single-threaded (``OPENBLAS_NUM_THREADS=1`` and friends) so that
runs on a shared machine stay steady; ``QPERM_THREADS`` is cleared, so the
bounds sampler runs serially.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import layers

WORKLOADS = ("construct", "sample", "experiments")
WORKERS = 4
SMOKE_WORKERS = 2  # two traced passes, so the call-count comparison can fail
DEADLINE_S = 170.0
BLAS_THREADS = 1

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("task_ms_p50", "ms"),
              ("task_ms_p90", "ms"), ("peak_rss_mb", "MB"), ("pass_ratio", "ratio")]

# (span, field): field is calls | self_s | total_s | a span counter
SPAN_METRICS = [
    ("permgroups.FiniteGroup", "self_s"),
    ("permgroups.subgroups", "self_s"),
    ("algebra.check_invariants", "self_s"),
    ("algebra.product_coeffs", "calls"),
    ("algebra.product_coeffs", "self_s"),
    ("algebra.is_positive_functional", "calls"),
    ("algebra.is_positive_functional", "self_s"),
    ("algebra.State", "calls"),
    ("algebra.Projection", "calls"),
    ("algebra.meet", "calls"),
    ("algebra.meet", "self_s"),
    ("algebra.meet", "fallbacks"),
    ("algebra.support_projection", "self_s"),
    ("algebra.spectral_projection", "self_s"),
    ("cqg.validate", "self_s"),
    ("cqg.solve_haar", "self_s"),
    ("cqg.convolve", "calls"),
    ("cqg.convolve", "self_s"),
    ("cqg.vector_state", "calls"),
    ("cqg.vector_state", "self_s"),
    ("cqg.sample_states", "self_s"),
    ("cqg.magic_projection", "calls"),
    ("cqg.characters", "self_s"),
    ("idempotent.condition", "calls"),
    ("idempotent.condition", "self_s"),
    ("idempotent.cesaro_idempotent", "calls"),
    ("idempotent.cesaro_idempotent", "self_s"),
    ("idempotent.cesaro_idempotent", "iterations"),
    ("idempotent.quasi_subgroup_member", "calls"),
    ("idempotent.classify_idempotent", "self_s"),
    ("idempotent.is_group_like", "self_s"),
    ("idempotent.collapse_stability_probe", "accept_ratio"),
    ("permutation.classical_version", "self_s"),
    ("permutation.quantum_fraction", "calls"),
    ("permutation.decompose", "self_s"),
    ("permutation.fix_spectrum", "self_s"),
    ("dynamics.verify_bounds_empirically", "self_s"),
    ("dynamics.trajectory", "self_s"),
    ("dynamics.detect_period", "self_s"),
    ("cli.load_group", "total_s"),
    ("cli.write_json", "self_s"),
]
FIELD_UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "fallbacks": "count",
               "iterations": "count", "accept_ratio": "ratio"}
OTHER_LAYER = [("cli.artifact_bytes", "B"), ("trace.overhead_ratio", "ratio"),
               ("trace.coverage", "ratio")]


def per_layer_names() -> list[tuple[str, str]]:
    names = [(f"{span}.{field}", FIELD_UNITS[field]) for span, field in SPAN_METRICS]
    names += [(f"{m}.self_s", "s") for m in layers.MODULES]
    return names + OTHER_LAYER


# -- aggregation -----------------------------------------------------------------


def untraced_passes(results: list[dict]) -> list[dict]:
    return [p for r in results for p in r["passes"] if not p["traced"]]


def traced_passes(results: list[dict]) -> list[dict]:
    return [p for r in results for p in r["passes"] if p["traced"]]


def speed_scale(probes: list[float]) -> float:
    return hostspeed.REFERENCE_PROBE_S * len(probes) / sum(probes)


def task_scales(p: dict) -> list[float]:
    """Host-speed scale of each task of a pass: the mean of the pass's scale
    (all its probes) and the scale from the probes just before and after
    the task (see ``hostspeed.py``)."""
    whole = speed_scale(p["probe_s"])
    around = zip(p["probe_s"], p["probe_s"][1:])
    return [(whole + speed_scale(pair)) / 2 for pair in around]


def scaled_wall(p: dict) -> float:
    """The pass wall time, scaled by its tasks' scales weighted by latency."""
    scales = task_scales(p)
    return p["wall"] * sum(t * s for t, s in zip(p["task_s"], scales)) / sum(p["task_s"])


def scaled_setup(r: dict) -> float:
    return r["setup_s"] * speed_scale([t for p in r["passes"] for t in p["probe_s"]])


def task_latencies(results: list[dict]) -> list[float]:
    """Each task's median scaled latency over the run's untraced passes.

    Every worker runs the same task list in the same order, so position k
    of every pass is the same task.
    """
    passes = untraced_passes(results)
    scaled = [[t * s for t, s in zip(p["task_s"], task_scales(p))] for p in passes]
    return [statistics.median(samples) for samples in zip(*scaled)]


def end_to_end(results: list[dict]) -> dict:
    tasks = task_latencies(results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return {
        "setup_s": statistics.median(scaled_setup(r) for r in results),
        "wall_s": statistics.median(scaled_wall(p) for p in untraced_passes(results)),
        "task_ms_p50": 1e3 * statistics.median(tasks),
        "task_ms_p90": 1e3 * statistics.quantiles(tasks, n=10, method="inclusive")[-1],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "pass_ratio": (attempted - failed) / attempted,
    }


def per_layer(results: list[dict]) -> dict:
    traced = traced_passes(results)
    n = len(traced)
    spans: dict = {}
    for r in results:
        layers.merge_spans(spans, r["spans"])
    empty = {"calls": 0, "total": 0.0, "self": 0.0, "extra": {}}

    def field(span, name):
        s = spans.get(span, empty)
        if name == "calls":
            return s["calls"] / n
        if name == "self_s":
            return s["self"] / n
        if name == "total_s":
            return s["total"] / n
        if name == "accept_ratio":
            cand = s["extra"].get("candidates", 0.0)
            return s["extra"].get("accepted", 0.0) / cand if cand else 0.0
        return s["extra"].get(name, 0.0) / n

    out = {f"{span}.{f}": field(span, f) for span, f in SPAN_METRICS}
    for m in layers.MODULES:
        out[f"{m}.self_s"] = sum(s["self"] for name, s in spans.items()
                                 if name.startswith(m + ".")) / n
    traced_walls = [scaled_wall(p) for p in traced]
    out["cli.artifact_bytes"] = statistics.median(
        p["counters"].get("artifact_bytes", 0) for p in traced)
    untraced_walls = [scaled_wall(p) for p in untraced_passes(results)]
    out["trace.overhead_ratio"] = (statistics.median(traced_walls)
                                   / statistics.median(untraced_walls) - 1.0)
    out["trace.coverage"] = sum(s["self"] for s in spans.values()) / sum(traced_walls)
    return out


# -- environment -------------------------------------------------------------------


def environment(root: Path, args, results: list[dict]) -> dict:
    import numpy
    import scipy

    src = sorted((root / "src" / "qperm").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    walls = [p["wall"] for p in untraced_passes(results)]
    probes = [t for r in results for p in r["passes"] for t in p["probe_s"]]
    return {
        "commit": _git_commit(root),
        "src_sha256": digest.hexdigest(),
        "src_qperm_lines": lines,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "workers": len(results),
        "passes": len(walls),
        "traced_passes": len(traced_passes(results)),
        "task_samples": sum(len(p["task_s"]) for p in untraced_passes(results)),
        "unscaled_pass_walls_s": [round(w, 4) for w in walls],
        "unscaled_setup_s": [round(r["setup_s"], 4) for r in results],
        "probe_ms_median": 1e3 * statistics.median(probes),
        "probe_ms_quartiles": [1e3 * q for q in statistics.quantiles(probes, n=4)]
        if len(probes) > 1 else None,
        "reference_probe_ms": 1e3 * hostspeed.REFERENCE_PROBE_S,
    }


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


# -- workers ----------------------------------------------------------------------------


def run_workers(root: Path, args) -> list[dict]:
    env = dict(os.environ)
    env.pop("QPERM_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    worker = Path(__file__).resolve().parent / "worker.py"
    workers = SMOKE_WORKERS if args.smoke else WORKERS
    deadline = time.monotonic() + DEADLINE_S
    results = []
    for i in range(workers):
        # time a worker leaves unused (a pass that would not fit) goes to the next
        budget = (args.seconds - sum(r["measure_s"] for r in results)) / (workers - i)
        cmd = [sys.executable, str(worker), "--root", str(root),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(max(budget, 0.0)), "--trace", str(args.trace),
               "--spawned-at", repr(time.monotonic())]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"worker exited with code {proc.returncode}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=32.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="a small subset of each task list, two workers (self-test)")
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qperm" / "__init__.py").is_file():
        print(f"error: no qperm source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    try:
        results = run_workers(root, args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = per_layer(results)
        units = dict(per_layer_names())
    else:
        metrics = end_to_end(results)
        units = dict(END_TO_END)
    failures = [f for r in results for f in r["failures"]]
    failed = sum(r["failed"] for r in results)
    if any(r["calls_per_pass"] != results[0]["calls_per_pass"] for r in results):
        failures.append("call counts differ between workers' traced passes")
        failed += 1
    for failure in failures:
        print(f"FAILED {failure}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({"environment": environment(root, args, results)}))
    attempted = sum(r["attempted"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
