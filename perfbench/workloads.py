"""The three benchmark workloads, each a fixed task list built from a seed.

A task is one call into qperm's public API: ``run()`` makes the call and is
timed; ``check(output)`` verifies the output (untimed per task, but inside
the pass wall time) and returns an error message, or ``None`` when it holds.

qperm functions are looked up through their modules at call time
(``cqg.dual_dihedral``, not a name imported at load time), so that the
traced run's wrappers see every call.

- ``construct``: every CLI builtin at this commit plus the scale rungs
  ``dual_dihedral(15)`` and ``dual_dihedral(20)`` (dims 30 and 40), each
  built fresh without the constructor's own validation and then validated
  explicitly; the seed shuffles the build order.  Stresses construction and
  validation (O(d^4) memory, O(d^5) time); no sampling.
- ``sample``: kp, dual-s4, s4 and dual-d6 with their classical versions and
  the criterion-8 idempotent census are built in setup; a pass runs
  ``verify_bounds_empirically`` batches on each group and
  ``collapse_stability_probe`` over the census.  Thousands of dim-8 to
  dim-24 calls, so per-call overhead dominates; construction is bypassed.
- ``experiments``: 18 registered experiment specs at the CLI's default
  sizes through ``qperm.cli.main(["run", spec, "--out", dir])`` in process:
  build once, use once, write artifacts.  The only workload that runs
  ``cli``.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
from pathlib import Path

import numpy as np

import qperm
from qperm import cli, cqg, dynamics, idempotent, permgroups, permutation

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference_seed0.json"
DEFAULT_SEED = 0
HAAR_TOL = 1e-9
REF_TOL = 1e-10


def _sub_seeds(seed: int, workload: str, n: int) -> list[int]:
    """n reproducible 31-bit seeds for one workload, drawn from the run seed."""
    key = sum(workload.encode())
    rng = np.random.default_rng([seed, key])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


class Task:
    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


# -- construct ------------------------------------------------------------------


def _builtin_recipes():
    """Every CLI builtin at this commit, built without constructor validation."""
    pg = permgroups
    recipes = {
        "trivial": lambda: cqg.classical_group([pg.identity_perm(1)], name="trivial",
                                               check=False),
        "s2": lambda: cqg.classical_group(pg.symmetric_group(2), name="s2", check=False),
        "s3": lambda: cqg.classical_group(pg.symmetric_group(3), name="s3", check=False),
        "s4": lambda: cqg.classical_group(pg.symmetric_group(4), name="s4", check=False),
        "klein-s4": lambda: cqg.classical_group(pg.klein_four(), name="klein-s4",
                                                check=False),
        "z4-s4": lambda: cqg.classical_group(
            pg.closure([pg.from_cycles(4, (0, 1, 2, 3))]), name="z4-s4", check=False),
        "kp": lambda: cqg.kac_paljutkin(check=False),
        "dual-z2": lambda: cqg.dual_group(pg.FiniteGroup.cyclic(2), [(1, 2)],
                                          name="dual-z2", check=False),
        "dual-s3": lambda: cqg.dual_symmetric_group(3, check=False),
        "dual-s4": lambda: cqg.dual_symmetric_group(4, check=False),
    }
    for m in range(3, 13):
        recipes[f"dual-d{m}"] = lambda m=m: cqg.dual_dihedral(m, check=False)
    for m in (15, 20):
        recipes[f"rung-dual-d{m}"] = lambda m=m: cqg.dual_dihedral(m, check=False)
    return recipes


def _haar_closed_form(G) -> np.ndarray:
    """Uniform on a classical group, delta_e on a dual, the trace on kp."""
    if G.kind == "classical":
        return np.full(G.dim, 1.0 / G.dim)
    if G.kind == "dual":
        return np.eye(G.dim)[0]
    return G.algebra.trace


def _check_constructed(output):
    G, report = output
    if not report.ok:
        return f"validate failed: {[c.name for c in report.failures()]}"
    err = float(np.abs(G.haar.duals - _haar_closed_form(G)).max())
    if err > HAAR_TOL:
        return f"Haar state off its closed form by {err:.3e}"
    return None


class Construct:
    name = "construct"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        recipes = _builtin_recipes()
        names = sorted(recipes)
        if smoke:
            names = ["trivial", "s3", "kp", "dual-d4"]
        order = np.random.default_rng([seed, 1]).permutation(len(names))
        self.tasks = [Task(names[i], self._build(recipes[names[i]]), _check_constructed)
                      for i in order]
        self.counters = {}

    @staticmethod
    def _build(recipe):
        def run():
            G = recipe()
            return G, G.validate()
        return run


# -- sample -----------------------------------------------------------------------


def _criterion8_census(kp, ds4):
    """Idempotents of acceptance criterion 8: kp limits and dual-S4 indicators."""
    census = []
    eye = np.eye(8)
    for duals in (eye[4], eye[7], (eye[0] + eye[3] + eye[4]) / 3):
        seed_state = qperm.algebra.State(kp.algebra, duals)
        census.append((kp, idempotent.cesaro_idempotent(kp, seed_state).limit))
    census.append((kp, kp.haar))
    census.append((kp, kp.counit))
    census.append((kp, idempotent.condition(kp, kp.haar, kp.magic_projection(0, 0))))
    seen = set()
    for sub in ds4.group.subgroups():
        key = (len(sub), ds4.group.is_normal(sub))
        if key in seen:
            continue
        seen.add(key)
        census.append((ds4, idempotent.dual_subgroup_idempotent(ds4, sorted(sub))))
    return census


class Sample:
    name = "sample"
    PROBE_SAMPLES = 8
    BOUNDS_BATCHES = 4
    BOUNDS_SAMPLES = 16

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        names = ["kp"] if smoke else ["kp", "dual-s4", "s4", "dual-d6"]
        groups = {n: cli.load_group(n) for n in names}
        cvs = {n: permutation.classical_version(G) for n, G in groups.items()}
        census = _criterion8_census(groups["kp"], groups.get("dual-s4") or
                                    cli.load_group("dual-s4"))
        if smoke:
            census = census[:2]
        batches = len(names) * self.BOUNDS_BATCHES
        seeds = _sub_seeds(seed, self.name, len(census) + batches)
        self.tasks = []
        for k, (G, psi) in enumerate(census):
            kind = idempotent.classify_idempotent(G, psi).kind
            group_like = idempotent.is_group_like(
                G, qperm.algebra.support_projection(psi))
            self.tasks.append(Task(f"probe-{G.name}-{k}-{kind}",
                                   self._probe(G, psi, seeds[k]),
                                   self._probe_check(kind, group_like)))
        k = len(census)
        for n in names:
            for _ in range(self.BOUNDS_BATCHES):
                self.tasks.append(Task(f"bounds-{n}-{seeds[k]}",
                                       self._bounds(groups[n], cvs[n], seeds[k]),
                                       self._bounds_check))
                k += 1
        self.counters = {}

    def _probe(self, G, psi, seed):
        return lambda: idempotent.collapse_stability_probe(
            G, psi, n_samples=self.PROBE_SAMPLES, seed=seed)

    @staticmethod
    def _probe_check(kind, group_like):
        def check(report):
            if kind == "Haar" and not report.stable:
                return f"Haar idempotent unstable: {len(report.violations)} violations"
            if kind == "NonHaar" and group_like and not report.violations:
                return "non-Haar idempotent with group-like support is stable"
            return None
        return check

    def _bounds(self, G, cv, seed):
        return lambda: dynamics.verify_bounds_empirically(
            G, cv, n_samples=self.BOUNDS_SAMPLES, seed=seed)

    @staticmethod
    def _bounds_check(report):
        return None if report.ok else f"{len(report.violations)} bound violations"


# -- experiments --------------------------------------------------------------------


_ALPHA_HAAR = {"kp": 0.5, "s4": 0.0, "dual-s4": 1.0 - 2.0 / 24.0}


def experiment_specs(seed: int) -> list[tuple[str, str, dict]]:
    """(experiment, group, parameters); the seed drives every sampled bank.

    Sizes are the CLI's own defaults (``qperm/cli.py``: 500 bound samples,
    50 census seeds, 24 stabiliser samples, a 101 x 101 phase diagram,
    dihedral m = 3..12), written out so that the checks can read them.
    """
    s = iter(_sub_seeds(seed, Experiments.name, 6))
    return [
        ("haar", "kp", {}),
        ("haar", "s4", {}),
        ("haar", "dual-s4", {}),
        ("classical-version", "kp", {}),
        ("classical-version", "s4", {}),
        ("classical-version", "dual-s4", {}),
        ("bounds-empirical", "kp", {"n_samples": 500, "seed": next(s)}),
        ("bounds-empirical", "s4", {"n_samples": 500, "seed": next(s)}),
        ("bounds-empirical", "dual-s4", {"n_samples": 500, "seed": next(s)}),
        ("idempotent-census", "kp", {"n_seeds": 50, "seed": next(s)}),
        ("idempotent-census", "dual-s4", {"n_seeds": 50, "seed": next(s)}),
        ("stabiliser", "kp", {"partition": [[0], [1, 2, 3]], "n_samples": 24,
                              "seed": next(s)}),
        ("fix-spectrum", "dual-s4", {}),
        ("periodicity", "kp", {}),
        ("periodicity", "s4", {}),
        ("s4hat-walkthrough", "dual-s4", {}),
        ("dihedral-sweep", "dual-d3", {"m_values": list(range(3, 13))}),
        ("phase-diagram", "kp", {"n": 101}),
    ]


def spec_label(name: str, group: str) -> str:
    return f"{name}@{group}"


def read_artifacts(out: Path) -> dict:
    """Every artifact of one run: JSON parsed, CSV as rows of numbers/strings."""
    found = {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".json":
            found[path.name] = json.loads(path.read_text())
        elif path.suffix == ".csv":
            with open(path, newline="") as fh:
                found[path.name] = [[_csv_value(v) for v in row] for row in csv.reader(fh)]
    return found


def _csv_value(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def compare(a, b, path="") -> str | None:
    """First difference beyond REF_TOL for numbers, exact for everything else."""
    if isinstance(a, dict) and isinstance(b, dict):
        if sorted(a) != sorted(b):
            return f"{path}: keys {sorted(a)} != {sorted(b)}"
        for k in a:
            diff = compare(a[k], b[k], f"{path}.{k}")
            if diff:
                return diff
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            diff = compare(x, y, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if isinstance(a, float) or isinstance(b, float):
        if isinstance(a, bool) or isinstance(b, bool) or not isinstance(a, (int, float)) \
                or not isinstance(b, (int, float)):
            return f"{path}: {a!r} != {b!r}"
        if not abs(a - b) <= REF_TOL:
            return f"{path}: {a!r} != {b!r}"
        return None
    if type(a) is not type(b) or a != b:
        return f"{path}: {a!r} != {b!r}"
    return None


def _gate(name: str, group: str, params: dict, arts: dict) -> str | None:
    """The artifact's own pass criteria."""
    if name == "haar":
        a = arts["haar.json"]
        if a["matches_stored"] > 1e-10:
            return f"Haar solve drifts from the stored state by {a['matches_stored']}"
        if abs(a["alpha_haar"] - _ALPHA_HAAR[group]) > 1e-9:
            return f"alpha(h) = {a['alpha_haar']}"
    elif name == "classical-version":
        a = arts["classical_version.json"]
        if abs(a["alpha_haar"] - _ALPHA_HAAR[group]) > 1e-9 or not a["p_C_group_like"]:
            return f"alpha(h) = {a['alpha_haar']}, p_C group-like {a['p_C_group_like']}"
    elif name == "bounds-empirical":
        a = arts["bounds.json"]
        if a["violations"] != 0 or a["n_samples"] < params["n_samples"]:
            return f"{a['violations']} violations over {a['n_samples']} samples"
    elif name == "idempotent-census":
        if not arts["census.json"]["all_gap_ok"]:
            return "idempotent gap violated"
    elif name == "stabiliser":
        if not arts["stabiliser.json"]["is_idempotent"]:
            return "stabiliser state is not idempotent"
    elif name == "periodicity":
        rows = arts["periodicity.json"]["rows"]
        if not rows:
            return "no periodicity rows"
        bad = [r for r in rows if "coset_order" in r and r["period"] != r["coset_order"]]
        if bad or any(r["period"] is None for r in rows):
            return f"period != coset order on {len(bad)} rows"
    elif name == "s4hat-walkthrough":
        if not arts["s4hat.json"]["converged_to_haar"]:
            return "walkthrough did not converge to Haar"
    elif name == "dihedral-sweep":
        rows = arts["dihedral_sweep.json"]["rows"]
        if len(rows) != len(params["m_values"]) or max(r["error"] for r in rows) > 1e-8:
            return "dihedral Haar-of-meet differs from 1/(2m)"
    elif name == "phase-diagram":
        rows = arts["phase_diagram.csv"]
        if len(rows) != params["n"] ** 2 + 1 or rows[0][0] != "alpha":
            return f"phase diagram has {len(rows)} lines"
    return None


class Experiments:
    """With ``record=True`` the checks keep each run's artifacts in
    ``self.recorded`` instead of comparing them with the reference."""
    name = "experiments"

    def __init__(self, seed: int, smoke: bool, workdir: Path, record: bool = False):
        specs = experiment_specs(seed)
        if smoke:
            specs = [s for s in specs if s[1] == "kp"]
        self.recorded = {} if record else None
        self.reference = None
        if seed == DEFAULT_SEED and not record:
            self.reference = json.loads(REFERENCE.read_text())
        self.workdir = workdir
        self.counters = {"artifact_bytes": 0}
        self.tasks = []
        for name, group, params in specs:
            label = spec_label(name, group)
            spec_path = workdir / f"{label}.spec.json"
            spec_path.write_text(json.dumps({"name": name, "group": group,
                                             "parameters": params}))
            out = workdir / f"{label}.out"
            self.tasks.append(Task(label, self._run(spec_path, out),
                                   self._check(label, name, group, params, out)))

    @staticmethod
    def _run(spec_path: Path, out: Path):
        def run():
            shutil.rmtree(out, ignore_errors=True)
            with contextlib.redirect_stdout(io.StringIO()):  # the CLI lists artifact paths
                return cli.main(["run", str(spec_path), "--out", str(out)])
        return run

    def _check(self, label, name, group, params, out):
        def check(exit_code):
            try:
                if exit_code != 0:
                    return f"exit code {exit_code}"
                self.counters["artifact_bytes"] += sum(
                    p.stat().st_size for p in out.iterdir())
                arts = read_artifacts(out)
                failure = _gate(name, group, params, arts)
                if self.recorded is not None:
                    self.recorded[label] = arts
                elif failure is None and self.reference is not None:
                    if label not in self.reference:
                        return "no reference artifacts recorded"
                    diff = compare(arts, self.reference[label])
                    if diff:
                        return f"differs from the reference at {diff}"
                return failure
            finally:
                shutil.rmtree(out, ignore_errors=True)
        return check


WORKLOADS = {w.name: w for w in (Construct, Sample, Experiments)}
