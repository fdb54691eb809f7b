"""Command-line front end.

    qperm validate <builtin-or-file>
    qperm run <experiment-spec.json> [--out DIR]
    qperm report <artifact-dir>

Group definition files are JSON:

    {"kind": "classical" | "dual" | "kac_paljutkin",
     "permutations": [[0,1,2], ...],          # classical: 0-indexed images
     "group_table": [[...], ...],             # dual: multiplication table
     "generators": [{"element": i, "order": d}, ...],   # dual
     "tolerance": 1e-9}                    # optional, in (0, 1)

Experiment specs are JSON with a registered name, a group reference (builtin
name or definition-file path), parameters and optional explicit output paths:

    {"name": "bounds-empirical", "group": "kp",
     "parameters": {"n_samples": 500, "seed": 7}, "outputs": ["bounds.json"]}

``phase-diagram`` and ``dihedral-sweep`` ignore their group (the sweep builds
its own dual dihedral groups), so for them no group is loaded or validated.

Exit codes: 0 success, 1 assertion failure, 2 input error.  A group file
off the schema above, listing over 120 elements or acting on over 120
points (a classical file's degree, a dual file's sum of generator orders)
is an input error, found before any array is built.  So is an integer
parameter out of range (n_samples 1..10^5, n_seeds 0..10^4, n 2..1001,
seed >= 0, k_max 1..10^4) or not an integer, an ``m_values`` that is not a
non-empty list of integers in 2..60 (dual dihedral up to dim 120), a
``partition`` that is not a list of non-empty lists of integers
partitioning 0..N-1 for the group's N, a ``group`` that is not a string,
``outputs`` that are not a list of strings and an ``s4hat-walkthrough`` on
any group but the ``dual-s4`` builtin; all are found before anything is
written.  An ``--out`` or ``summary.json`` that cannot be written is an input
error too, and a certificate or LAPACK failure during a run exits 1.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import dynamics, idempotent, permgroups, permutation
from .algebra import DEFAULT_TOL, AlgebraError, State, _certify, meet
from .cqg import (
    CompactQuantumGroup,
    classical_group,
    dual_dihedral,
    dual_group,
    dual_symmetric_group,
    kac_paljutkin,
    uniform_state,
)

EXIT_OK, EXIT_FAIL, EXIT_INPUT = 0, 1, 2

MAX_DIM = 120  # largest group file or dihedral sweep: (d, d, d) arrays grow as d^3


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _json_default(obj):
    """What json cannot encode itself: a complex number as {re, im}, a State
    as its duals, an array as a list and a NumPy scalar as its Python value."""
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, State):
        return obj.duals
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True, default=_json_default)
        fh.write("\n")


# -- group registry -----------------------------------------------------------


BUILTIN_GROUPS = {
    "trivial": lambda: classical_group([permgroups.identity_perm(1)], name="trivial"),
    "s2": lambda: classical_group(permgroups.symmetric_group(2), name="s2"),
    "s3": lambda: classical_group(permgroups.symmetric_group(3), name="s3"),
    "s4": lambda: classical_group(permgroups.symmetric_group(4), name="s4"),
    "klein-s4": lambda: classical_group(permgroups.klein_four(), name="klein-s4"),
    "z4-s4": lambda: classical_group(permgroups.closure([permgroups.from_cycles(4, (0, 1, 2, 3))]),
                                     name="z4-s4"),
    "kp": kac_paljutkin,
    "dual-z2": lambda: dual_group(permgroups.FiniteGroup.cyclic(2), [(1, 2)],
                                  name="dual-z2"),
    "dual-s3": lambda: dual_symmetric_group(3),
    "dual-s4": lambda: dual_symmetric_group(4),
}
for _m in range(3, 13):
    BUILTIN_GROUPS[f"dual-d{_m}"] = (lambda m=_m: dual_dihedral(m))


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _int_list(v, n: int) -> bool:
    """Whether v is a list of n integers, each in range(n)."""
    return (isinstance(v, list) and len(v) == n
            and all(_is_int(x) and 0 <= x < n for x in v))


def _check_points(n: int) -> None:
    """The size budget: at most MAX_DIM points.  With at most MAX_DIM
    elements, the (N, N, d) magic grid then holds N^2 d <= MAX_DIM^3 entries,
    no more than one structure-constant tensor."""
    if n > MAX_DIM:
        raise ValueError(f"a group file acts on at most {MAX_DIM} points, not {n}")


def _check_group_schema(data) -> None:
    """Raise ValueError unless ``data`` follows the group-file schema.

    Only the shape is checked here; group axioms (closure, inverses,
    generation) are checked by the constructors and fail as assertions.
    """
    if not isinstance(data, dict):
        raise ValueError("a group file must hold a JSON object")
    tol = data.get("tolerance", DEFAULT_TOL)
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 < tol < 1:
        raise ValueError(f"tolerance must be a number in (0, 1), not {tol!r}")
    kind = data.get("kind")
    if kind == "classical":
        perms = data.get("permutations")
        if not (isinstance(perms, list) and 0 < len(perms) <= MAX_DIM
                and isinstance(perms[0], list)):
            raise ValueError(f"'permutations' must be a list of 1 to {MAX_DIM} lists")
        n = len(perms[0])
        _check_points(n)
        if n == 0 or not all(_int_list(p, n) and len(set(p)) == n for p in perms):
            raise ValueError(f"every permutation must list the images of 0..{n - 1}")
    elif kind == "dual":
        table = data.get("group_table")
        n = len(table) if isinstance(table, list) else 0
        if not 0 < n <= MAX_DIM or not all(_int_list(row, n) for row in table):
            raise ValueError("'group_table' must be a non-empty square table of "
                             f"element indices, of at most {MAX_DIM} elements")
        labels = data.get("labels")
        if labels and not (isinstance(labels, list) and len(labels) == n
                           and all(isinstance(l, str) for l in labels)):
            raise ValueError(f"'labels' must be a list of {n} strings")
        gens = data.get("generators")
        if not isinstance(gens, list) or not gens or not all(
                isinstance(g, dict) and _is_int(g.get("element"))
                and 0 <= g["element"] < n and _is_int(g.get("order"))
                and g["order"] >= 1 for g in gens):
            raise ValueError("'generators' must be a non-empty list of "
                             f"{{\"element\": 0..{n - 1}, \"order\": d >= 1}}")
        _check_points(sum(g["order"] for g in gens))
    elif kind != "kac_paljutkin":
        raise ValueError(f"unknown group kind: {kind!r}")


def _read_json(path) -> object:
    """The JSON value in a file; ValueError if it is malformed or nested too deeply."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:  # json's decoder recurses once a level
            raise ValueError("JSON nested too deeply") from None


def load_group(ref: str) -> CompactQuantumGroup:
    if ref in BUILTIN_GROUPS:
        return BUILTIN_GROUPS[ref]()
    path = Path(ref)
    if not path.exists():
        raise FileNotFoundError(f"unknown builtin and no such file: {ref}")
    data = _read_json(path)
    _check_group_schema(data)
    kind = data["kind"]
    tol = float(data.get("tolerance", DEFAULT_TOL))
    if kind == "classical":
        perms = [tuple(p) for p in data["permutations"]]
        return classical_group(perms, name=path.stem, tol=tol)
    if kind == "dual":
        table = data["group_table"]
        labels = data.get("labels") or [f"g{i}" for i in range(len(table))]
        try:
            group = permgroups.FiniteGroup(labels, table)
        except ValueError as exc:
            raise AlgebraError(f"multiplication table axiom failed: {exc}") from exc
        gens = [(g["element"], g["order"]) for g in data["generators"]]
        return dual_group(group, gens, name=path.stem, tol=tol)
    return kac_paljutkin(tol=tol)


# -- experiments ----------------------------------------------------------------


def exp_haar(G, params, out):
    # "matches_stored" holds the larger of validate's two Haar invariance residuals
    h, residual = G.haar, {c.name: c.residual for c in G.validate().checks}
    payload = {"group": G.name, "dim": G.dim, "N": G.N, "haar_duals": h,
               "matches_stored": max(residual["haar_left_invariance"],
                                     residual["haar_right_invariance"])}
    payload["alpha_haar"] = permutation.quantum_fraction(h, permutation.classical_version(G))
    write_json(out / "haar.json", payload)
    return ["haar.json"]


def exp_classical_version(G, params, out):
    cv = permutation.classical_version(G)
    payload = {
        "group": G.name,
        "order": len(cv),
        "permutations": [list(p) for p in cv.permutations],
        "labels": [permgroups.perm_label(p) for p in cv.permutations],
        "support_ranks": [permutation.projection_rank(p) for p in cv.supports],
        "p_C_group_like": True,  # classical_version raises unless is_group_like(G, p_C)
        "alpha_haar": permutation.quantum_fraction(G.haar, cv),
        "bound_2nfact": 2 * math.factorial(G.N),
    }
    write_json(out / "classical_version.json", payload)
    return ["classical_version.json"]


def exp_stabiliser(G, params, out):
    partition = params.get("partition")
    if partition is None:
        partition = [[0], list(range(1, G.N))] if G.N > 1 else [[0]]
    psi = permutation.stabiliser_idempotent(G, partition)
    payload = {"group": G.name, "partition": partition,
               "idempotent_duals": psi,
               "diagonal_masses": [float(psi(G.magic_projection(j, j)).real)
                                   for j in range(G.N)],
               "alpha": permutation.quantum_fraction(psi, permutation.classical_version(G)),
               "is_idempotent": idempotent.is_idempotent(G, psi)}
    write_json(out / "stabiliser.json", payload)
    return ["stabiliser.json"]


def exp_idempotent_census(G, params, out):
    n_seeds = int(params.get("n_seeds", 50))
    seed = int(params.get("seed", 0))
    cv = permutation.classical_version(G)
    extra = [G.counit, G.haar]
    results = idempotent.idempotent_census(G, n_seeds, seed=seed, extra_seeds=extra)
    alphas = permutation._quantum_fractions(np.array([res.limit.duals for res in results]), cv)
    limits = {res.limit.duals.tobytes(): res.limit for res in results}  # bytewise distinct
    kinds = {key: idempotent.classify_idempotent(G, limit) for key, limit in limits.items()}
    rows, gap_ok = [], True
    for k, (res, alpha) in enumerate(zip(results, alphas.tolist())):
        cls = kinds[res.limit.duals.tobytes()]
        ok = dynamics.idempotent_gap_check(alpha)
        gap_ok = gap_ok and ok
        rows.append({"seed_index": k, "converged": res.converged,
                     "iterations": res.iterations, "alpha": alpha,
                     "kind": cls.kind, "null_dim": cls.null_space_dim,
                     "gap_ok": ok})
    chi_values = sorted({round(r["alpha"], 9) for r in rows})
    payload = {"group": G.name, "n": len(rows), "rows": rows,
               "all_gap_ok": gap_ok, "chi_values": chi_values}
    write_json(out / "census.json", payload)
    if not gap_ok:
        raise AlgebraError("idempotent gap violated in census")
    return ["census.json"]


def exp_phase_diagram(G, params, out):
    n = int(params.get("n", 101))
    cols = dynamics.phase_diagram_rows(n)
    grid = [_fmt(x) for x in cols["beta"][:n]]  # the grid values, formatted once
    flag_text = [",".join(bits) for bits in itertools.product("01", repeat=3)]
    flags = cols["q2i"] * 4 + cols["q3i"] * 2 + cols["qhalfw"]
    path = out / "phase_diagram.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("alpha,beta,region,q2i,q3i,qhalfw,lower,upper\n")
        fh.writelines(f"{a},{b},{region},{flag_text[f]},{_fmt(lo)},{_fmt(up)}\n"
                      for (a, b), region, f, lo, up in zip(
                          itertools.product(grid, repeat=2), cols["region"].tolist(),
                          flags.tolist(), cols["lower"].tolist(), cols["upper"].tolist()))
    return ["phase_diagram.csv"]


def exp_bounds(G, params, out):
    cv = permutation.classical_version(G)
    rep = dynamics.verify_bounds_empirically(
        G, cv, n_samples=int(params.get("n_samples", 500)),
        seed=int(params.get("seed", 0)))
    alphas = rep.samples[:, 0]
    payload = {"group": G.name, "n_samples": len(rep.samples),
               "violations": len(rep.violations),
               "alpha_range": [alphas.min(), alphas.max()],
               "samples": rep.samples}
    write_json(out / "bounds.json", payload)
    if rep.violations:
        raise AlgebraError(f"{len(rep.violations)} convolution bound violations, the first: "
                           + json.dumps(rep.violations[0]))
    return ["bounds.json"]


def exp_periodicity(G, params, out):
    rows = []
    if G.kind == "classical" and G.N == 4 and len(G.group_elements) == 24:
        klein, periods = permgroups.klein_four(), {}  # one scan per coset of V
        for g in G.group_elements:
            nu = uniform_state(G, [permgroups.compose(p, g) for p in klein])
            if (key := nu.duals.tobytes()) not in periods:
                periods[key] = dynamics.detect_period(G, nu)
            rows.append({"representative": permgroups.perm_label(g),
                         "element_order": permgroups.perm_order(g),
                         "coset_order": permgroups.coset_order(g, klein),
                         "period": periods[key]})
    if G.kind == "kac_paljutkin":
        cv, k_max = permutation.classical_version(G), int(params.get("k_max", 8))
        # one stack of E11's powers: alpha_k from k_max + 1 rows, detect_period's scan from 65
        P = dynamics._powers(G, State(G.algebra, np.eye(G.dim)[4]), max(64, k_max))
        rows.append({"seed": "E11", "period": dynamics._period(P[:65]),
                     "alpha_k": permutation._quantum_fractions(P[:k_max + 1], cv).tolist()})
    payload = {"group": G.name, "rows": rows}
    write_json(out / "periodicity.json", payload)
    return ["periodicity.json"]


def exp_fix_spectrum(G, params, out):
    fs = permutation.fix_spectrum(G)
    payload = {"group": G.name, "eigenvalues": fs.eigenvalues,
               "counit_distribution": fs.distribution(G.counit),
               "haar_distribution": fs.distribution(G.haar),
               "haar_integer_fixed_points":
                   permutation.has_integer_fixed_points(G.haar, fs)}
    write_json(out / "fix_spectrum.json", payload)
    return ["fix_spectrum.json"]


def exp_s4hat_walkthrough(G, params, out):
    fs = permutation.fix_spectrum(G)
    lam_plus = (5 + math.sqrt(17)) / 2
    lam_minus = (5 - math.sqrt(17)) / 2
    found_p = min(abs(l - lam_plus) for l in fs.eigenvalues)
    found_m = min(abs(l - lam_minus) for l in fs.eigenvalues)
    # seed: equal mix of eigenvector states with two and four fixed points
    phi = permutation.fix_eigenvector_seed(G)
    conv = dynamics.convergence_to_haar(G, phi, k_max=int(params.get("k_max", 200)))
    p_plus = fs.projections[int(np.argmin([abs(l - lam_plus)
                                           for l in fs.eigenvalues]))]
    haar_weight = float(G.haar(p_plus).real)
    terminal = fs.distribution(G.haar)
    payload = {
        "group": G.name,
        "eigenvalues": fs.eigenvalues,
        "lambda_plus_error": found_p, "lambda_minus_error": found_m,
        "seed_strict": conv.strict,
        "distance_trace": conv.distances,
        "converged_to_haar": conv.converged,
        "haar_weight_at_lambda_plus": haar_weight,
        "terminal_distribution": terminal,
        "limit_has_integer_fixed_points":
            permutation.has_integer_fixed_points(G.haar, fs),
    }
    write_json(out / "s4hat.json", payload)
    if not (conv.converged and haar_weight > 0):
        raise AlgebraError("walkthrough failed its convergence targets")
    return ["s4hat.json"]


def exp_dihedral_sweep(G, params, out):
    rows = []
    for m in params.get("m_values", range(3, 13)):
        Dm = dual_dihedral(m)
        r = meet([Dm.magic_projection(0, 0), Dm.magic_projection(2, 2)])
        val = float(Dm.haar(r).real)
        rows.append({"m": m, "haar_of_meet": val, "expected": 1.0 / (2 * m),
                     "error": abs(val - 1.0 / (2 * m))})
    payload = {"rows": rows,
               "trend_to_zero": rows[-1]["haar_of_meet"] < rows[0]["haar_of_meet"]}
    write_json(out / "dihedral_sweep.json", payload)
    _certify("dihedral sweep mismatch with 1/(2m)", np.max([r["error"] for r in rows]), 1e-8)
    return ["dihedral_sweep.json"]


EXPERIMENTS = {
    "haar": exp_haar,
    "classical-version": exp_classical_version,
    "stabiliser": exp_stabiliser,
    "idempotent-census": exp_idempotent_census,
    "phase-diagram": exp_phase_diagram,
    "bounds-empirical": exp_bounds,
    "periodicity": exp_periodicity,
    "fix-spectrum": exp_fix_spectrum,
    "s4hat-walkthrough": exp_s4hat_walkthrough,
    "dihedral-sweep": exp_dihedral_sweep,
}

RANDOMIZED = {"idempotent-census", "bounds-empirical"}
GROUPLESS = {"phase-diagram", "dihedral-sweep"}  # run with G = None: no group is built

# (smallest, largest) accepted value of each integer parameter an experiment
# reads; None leaves it unbounded.  The caps keep a run desk-sized: the grid
# holds n^2 points, and samples, seeds and steps are each held in memory.
INT_PARAMETERS = {"n_samples": (1, 10 ** 5), "n_seeds": (0, 10 ** 4), "n": (2, 1001),
                  "seed": (0, None), "k_max": (1, 10 ** 4)}


def _check_parameters(params) -> None:
    if not isinstance(params, dict):
        raise ValueError("experiment parameters must be a JSON object")
    for key, (low, high) in INT_PARAMETERS.items():
        v = params.get(key)
        if key in params and not (_is_int(v) and low <= v and (high is None or v <= high)):
            bound = f">= {low}" if high is None else f"in {low}..{high}"
            raise ValueError(f"parameter {key!r} must be an integer {bound}, got {v!r}")
    ms = params.get("m_values")
    if "m_values" in params and not (isinstance(ms, list) and ms and all(
            _is_int(m) and 2 <= m <= MAX_DIM // 2 for m in ms)):
        raise ValueError("parameter 'm_values' must be a non-empty list of "
                         f"integers in 2..{MAX_DIM // 2}, got {ms!r}")


def _check_partition(partition, N: int) -> None:
    if not (isinstance(partition, list)
            and all(isinstance(b, list) and b and all(_is_int(x) for x in b)
                    for b in partition)
            and sorted(x for b in partition for x in b) == list(range(N))):
        raise ValueError(f"parameter 'partition' must be a list of lists of "
                         f"integers partitioning 0..{N - 1}, got {partition!r}")


# -- commands --------------------------------------------------------------------


def cmd_validate(args) -> int:
    G = load_group(args.group)  # a checked group: its constructor raises unless it validates
    print(f"group {G.name}: dim={G.dim}, N={G.N}")
    print(G.validate())
    return EXIT_OK


def cmd_run(args) -> int:
    spec = _read_json(args.spec)
    if not isinstance(spec, dict):
        raise ValueError("experiment spec must be a JSON object")
    name = spec["name"]
    if not isinstance(name, str) or name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; "
                         f"choose from {sorted(EXPERIMENTS)}")
    params = spec.get("parameters", {})
    _check_parameters(params)
    if name in RANDOMIZED and "seed" not in params:
        raise ValueError(f"experiment {name!r} requires a seed parameter")
    outputs, group = spec.get("outputs", []), spec.get("group", "kp")
    if not (isinstance(outputs, list) and all(isinstance(o, str) for o in outputs)):
        raise ValueError(f"'outputs' must be a list of path strings, got {outputs!r}")
    if not isinstance(group, str):
        raise ValueError(f"'group' must be a builtin name or a file path, got {group!r}")
    if name == "s4hat-walkthrough" and group != "dual-s4":
        raise ValueError(f"s4hat-walkthrough runs on the dual-s4 builtin, not {group!r}")
    G = None if name in GROUPLESS else load_group(group)
    if "partition" in params and G is not None:
        _check_partition(params["partition"], G.N)
    out = Path(args.out)
    produced = [out / a for a in EXPERIMENTS[name](G, params, out)]
    try:  # an absolute declared path replaces out
        for k, dest in enumerate(out / declared for declared in outputs[:len(produced)]):
            if dest != produced[k]:
                dest.parent.mkdir(parents=True, exist_ok=True)
                produced[k] = produced[k].replace(dest)
    except (OSError, ValueError) as exc:  # a directory or a null byte, say
        raise OSError(f"cannot write a declared output: {exc}") from exc
    for a in produced:
        print(a)
    return EXIT_OK


def _summary_entry(f: Path) -> dict:
    """The headline values of one artifact; ValueError if it is malformed."""
    data = _read_json(f)
    if not isinstance(data, dict):
        raise ValueError("an artifact must hold a JSON object")
    entry = {key: data[key] for key in (
        "alpha_haar", "violations", "all_gap_ok", "order", "converged_to_haar",
        "haar_weight_at_lambda_plus", "p_C_group_like", "trend_to_zero") if key in data}
    if not all(isinstance(v, (int, float)) for v in entry.values()):  # bool is an int
        raise ValueError("a headline value must be a number or a boolean")
    if "rows" in data and f.stem == "dihedral_sweep":
        rows = data["rows"]
        if not (isinstance(rows, list) and rows and all(
                isinstance(r, dict) and isinstance(r.get("error"), (int, float))
                for r in rows)):
            raise ValueError("'rows' must be a non-empty list of objects with an 'error'")
        entry["max_error"] = max(r["error"] for r in rows)
    return entry


def cmd_report(args) -> int:
    d = Path(args.dir)
    # summary.json is this command's own output, not an artifact
    files = [f for f in sorted(d.glob("*.json")) if f.name != "summary.json"]
    if not d.is_dir() or not files:
        raise ValueError(f"no artifacts in {d}")
    summary = {}
    lines = []
    for f in files:
        try:
            entry = _summary_entry(f)
        except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
            raise ValueError(f"{f}: {exc}") from exc
        summary[f.stem] = entry
        desc = ", ".join(f"{k}={v}" for k, v in entry.items()) or "(raw data)"
        lines.append(f"{f.stem:24s} {desc}")
    width = max(len(l) for l in lines)
    print("-" * width)
    for l in lines:
        print(l)
    print("-" * width)
    write_json(d / "summary.json", summary)
    print(d / "summary.json")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qperm",
        description="finite-dimensional quantum permutation group toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    p_val = sub.add_parser("validate", help="check the axioms of a group")
    p_val.add_argument("group", help="builtin name or definition JSON path")
    p_run = sub.add_parser("run", help="run a named experiment")
    p_run.add_argument("spec", help="experiment spec JSON path")
    p_run.add_argument("--out", default="qperm-out", help="artifact directory")
    p_rep = sub.add_parser("report", help="summarize an artifact directory")
    p_rep.add_argument("dir")
    args = parser.parse_args(argv)
    command = {"validate": cmd_validate, "run": cmd_run, "report": cmd_report}[args.command]
    try:  # the one place a failure becomes an exit code; any other exception is a bug
        return command(args)
    except (AlgebraError, np.linalg.LinAlgError) as exc:  # ValueErrors, so caught first
        print(f"assertion failure: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (OSError, ValueError, KeyError) as exc:  # JSONDecodeError is a ValueError
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
