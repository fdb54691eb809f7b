"""Command-line interface: exit codes, artifacts, determinism, start-up."""
import dataclasses
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import qperm
from qperm import algebra, cli, permgroups
from qperm.cli import BUILTIN_GROUPS, load_group, main
from qperm.algebra import AlgebraError, State
from qperm.cqg import uniform_state
from qperm.dynamics import detect_period, trajectory, verify_bounds_empirically
from qperm.idempotent import classify_idempotent, idempotent_census
from qperm.permgroups import FiniteGroup
from qperm.permutation import classical_version


def run(args):
    return main([str(a) for a in args])


def test_validate_builtins_pass(capsys):
    for name in ("kp", "s3", "dual-z2", "dual-d4"):
        assert run(["validate", name]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "FAIL" not in out


def test_validate_runs_the_hopf_contractions_once(monkeypatch, capsys):
    # the constructor validates kp, and the report printed is that one:
    # the group is immutable, so coassociativity's contraction runs once,
    # and kp's identities are one block each, so its pairs are taken once
    specs = []
    real = algebra._join

    def counting(spec, a, b, lead):
        shape, operand, counts, take = real(spec, a, b, lead)

        def taking(s0, s1):
            specs.append(spec)
            return take(s0, s1)
        return shape, operand, counts, taking

    monkeypatch.setattr(algebra, "_join", counting)
    assert run(["validate", "kp"]) == 0
    assert specs.count("iuk,uab->iabk") == 1
    assert "coassociativity" in capsys.readouterr().out


def test_validate_unknown_group_is_input_error(capsys):
    assert run(["validate", "no-such-group"]) == 2


def test_validate_corrupted_table(tmp_path, capsys):
    p = tmp_path / "bad.json"
    for bad in ({"kind": "dual",
                 "group_table": [[0, 1], [1, 1]],   # no inverses: not a group
                 "generators": [{"element": 1, "order": 2}]},
                {"kind": "dual",  # the powers of 1 run 1, 2, 2, ... and never reach 0
                 "group_table": [[0, 1, 2], [1, 2, 0], [2, 2, 0]],
                 "generators": [{"element": 1, "order": 3}]}):
        p.write_text(json.dumps(bad))
        assert run(["validate", p]) == 1
        assert "axiom" in capsys.readouterr().err
    not_closed = {"kind": "classical",
                  "permutations": [[0, 1, 2], [1, 0, 2], [1, 2, 0]]}
    p.write_text(json.dumps(not_closed))
    assert run(["validate", p]) == 1


@pytest.mark.parametrize("definition", [
    {"kind": "classical", "permutations": []},
    [{"kind": "classical", "permutations": [[0, 1], [1, 0]]}],
    {"kind": "dual", "group_table": [[0, 1], [1, 0]],
     "generators": [{"element": 2, "order": 2}]},
    {"kind": "kac_paljutkin", "tolerance": float("inf")},
    {"kind": "kac_paljutkin", "tolerance": 1.0},
    {"kind": "dual", "group_table": FiniteGroup.dihedral(61).table,
     "generators": [{"element": g, "order": 2}
                    for g in FiniteGroup.dihedral(61).dihedral_reflections()]},
    {"kind": "classical",
     "permutations": [list(p) for p in itertools.islice(itertools.permutations(range(6)), 121)]},
], ids=["empty-permutations", "top-level-list", "generator-out-of-range",
        "infinite-tolerance", "unit-tolerance", "dihedral-61-past-dim-120",
        "classical-121-elements"])
def test_validate_malformed_file_is_input_error(tmp_path, capsys, definition):
    p = tmp_path / "malformed.json"
    p.write_text(json.dumps(definition))
    assert run(["validate", p]) == 2
    assert "input error" in capsys.readouterr().err


def test_validate_classical_file(tmp_path):
    spec = {"kind": "classical", "permutations": [[0, 1], [1, 0]]}
    p = tmp_path / "s2.json"
    p.write_text(json.dumps(spec))
    assert run(["validate", p]) == 0


def test_classical_file_of_degree_twenty(tmp_path):
    # Z/20 acting regularly on 20 points: base-20 integer codes of these
    # permutations overflow int64, so the composition lookup must not use them
    group = tmp_path / "z20.json"
    group.write_text(json.dumps({"kind": "classical", "permutations": [
        [(j + k) % 20 for j in range(20)] for k in range(20)]}))
    assert run(["validate", group]) == 0
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": "classical-version", "group": str(group)}))
    assert run(["run", spec, "--out", tmp_path / "out"]) == 0
    assert json.loads((tmp_path / "out" / "classical_version.json").read_text())["order"] == 20


def test_validate_kac_paljutkin_file(tmp_path):
    p = tmp_path / "kp.json"
    p.write_text(json.dumps({"kind": "kac_paljutkin", "tolerance": 1e-9}))
    assert run(["validate", p]) == 0


@pytest.mark.parametrize("n", [3, 4, 5])
def test_classical_version_of_a_cyclic_dual(tmp_path, n):
    # the dual of Z/n has non-real characters for n >= 3
    group = tmp_path / f"dual-z{n}.json"
    group.write_text(json.dumps({
        "kind": "dual",
        "group_table": [[(i + j) % n for j in range(n)] for i in range(n)],
        "generators": [{"element": 1, "order": n}]}))
    assert run(["validate", group]) == 0
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": "classical-version", "group": str(group)}))
    assert run(["run", spec, "--out", tmp_path / "out"]) == 0
    data = json.loads((tmp_path / "out" / "classical_version.json").read_text())
    assert data["order"] == n
    assert abs(data["alpha_haar"]) < 1e-12


def test_run_unknown_experiment(tmp_path, capsys):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps({"name": "nope", "group": "kp"}))
    assert run(["run", p, "--out", tmp_path / "out"]) == 2


def test_run_randomized_requires_seed(tmp_path):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps({"name": "bounds-empirical", "group": "kp",
                             "parameters": {"n_samples": 5}}))
    assert run(["run", p, "--out", tmp_path / "out"]) == 2


@pytest.mark.parametrize("name, params", [
    ("bounds-empirical", {"n_samples": 0, "seed": 1}),
    ("bounds-empirical", {"n_samples": "x", "seed": 1}),
    ("phase-diagram", {"n": 1}),
    ("idempotent-census", {"n_seeds": -3, "seed": 1}),
    ("bounds-empirical", {"n_samples": 5, "seed": -1}),
    ("periodicity", {"k_max": "x"}),
], ids=["no-samples", "non-integer-samples", "one-point-grid", "negative-seeds",
        "negative-seed", "non-integer-steps"])
def test_run_malformed_integer_parameter_is_input_error(tmp_path, capsys, name, params):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps({"name": name, "group": "kp", "parameters": params}))
    assert run(["run", p, "--out", tmp_path / "out"]) == 2
    assert "input error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, params", [
    ("phase-diagram", {"n": 1002}),
    ("bounds-empirical", {"n_samples": 10 ** 18, "seed": 1}),
    ("idempotent-census", {"n_seeds": 10 ** 4 + 1, "seed": 1}),
    ("periodicity", {"k_max": 10 ** 18}),
], ids=["grid", "samples", "seeds", "steps"])
def test_run_oversized_parameter_is_input_error(tmp_path, capsys, monkeypatch, name, params):
    # rejected before a group is built, and nothing is written
    monkeypatch.setattr(cli, "load_group", lambda ref: pytest.fail("group was built"))
    p = tmp_path / "spec.json"
    p.write_text(json.dumps({"name": name, "group": "kp", "parameters": params}))
    assert run(["run", p, "--out", tmp_path / "out"]) == 2
    assert "input error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_parameter_caps_are_accepted():
    cli._check_parameters({key: high if high is not None else 10 ** 30
                           for key, (_, high) in cli.INT_PARAMETERS.items()})


@pytest.mark.parametrize("name, group, params", [
    ("dihedral-sweep", "dual-d3", {"m_values": [1]}),
    ("dihedral-sweep", "dual-d3", {"m_values": [True]}),
    ("dihedral-sweep", "dual-d3", {"m_values": 5}),
    ("dihedral-sweep", "dual-d3", {"m_values": "abc"}),
    ("dihedral-sweep", "dual-d3", {"m_values": [0]}),
    ("dihedral-sweep", "dual-d3", {"m_values": [3.5]}),
    ("dihedral-sweep", "dual-d3", {"m_values": [61]}),
    ("stabiliser", "kp", {"partition": [0, 1]}),
    ("stabiliser", "kp", {"partition": [[0], [1, "a"]]}),
    ("stabiliser", "kp", {"partition": [[0], [1]]}),
], ids=["m-one", "m-bool", "m-scalar", "m-string", "m-zero", "m-float", "m-past-dim-120",
        "flat-partition", "non-integer-block", "partial-partition"])
def test_run_malformed_list_parameter_is_input_error(tmp_path, capsys, name, group,
                                                     params):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps({"name": name, "group": group, "parameters": params}))
    assert run(["run", p, "--out", tmp_path / "out"]) == 2
    assert "input error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("spec", [["haar"], {"name": ["haar"]},
                                  {"name": "haar", "parameters": [1]},
                                  {"name": "haar", "group": "kp", "outputs": 5},
                                  {"name": "haar", "group": "kp", "outputs": [5]},
                                  {"name": "haar", "group": 5},
                                  {"name": "s4hat-walkthrough", "group": "kp"},
                                  {"name": "s4hat-walkthrough", "group": "dual-d12"}],
                         ids=["list", "list-name", "list-parameters", "scalar-outputs",
                              "non-string-output", "non-string-group", "s4hat-on-kp",
                              "s4hat-on-dual-d12"])
def test_run_malformed_spec_is_input_error(tmp_path, capsys, spec):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(spec))
    assert run(["run", p, "--out", tmp_path / "out"]) == 2
    assert "input error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_phase_diagram_deterministic(tmp_path):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps({"name": "phase-diagram", "group": "kp",
                             "parameters": {"n": 21}}))
    assert run(["run", p, "--out", tmp_path / "a"]) == 0
    assert run(["run", p, "--out", tmp_path / "b"]) == 0
    a = (tmp_path / "a" / "phase_diagram.csv").read_bytes()
    b = (tmp_path / "b" / "phase_diagram.csv").read_bytes()
    assert a == b
    header = a.decode().splitlines()[0]
    assert header == "alpha,beta,region,q2i,q3i,qhalfw,lower,upper"


@pytest.mark.parametrize("n", [2, 3, 11, 101])
def test_phase_diagram_matches_per_row_writer(tmp_path, experiment_oracles, n):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps({"name": "phase-diagram", "group": "trivial",
                             "parameters": {"n": n}}))
    assert run(["run", p, "--out", tmp_path]) == 0
    assert (tmp_path / "phase_diagram.csv").read_bytes() \
        == experiment_oracles.phase_csv(n).encode()


def test_bounds_experiment_deterministic(tmp_path):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps({"name": "bounds-empirical", "group": "kp",
                             "parameters": {"n_samples": 20, "seed": 5}}))
    assert run(["run", p, "--out", tmp_path / "a"]) == 0
    assert run(["run", p, "--out", tmp_path / "b"]) == 0
    assert (tmp_path / "a" / "bounds.json").read_bytes() == \
        (tmp_path / "b" / "bounds.json").read_bytes()


def test_bounds_experiment_writes_then_fails_on_violations(tmp_path, monkeypatch, capsys):
    # with p_C and p_Q swapped, classical pairs convolve to quantum mass
    def swapped(G):
        cv = classical_version(G)
        return dataclasses.replace(cv, p_C=cv.p_Q, p_Q=cv.p_C, S_C=cv.S_Q, S_Q=cv.S_C)

    monkeypatch.setattr(cli.permutation, "classical_version", swapped)
    G = BUILTIN_GROUPS["kp"]()
    count = len(verify_bounds_empirically(G, swapped(G), n_samples=20, seed=5).violations)
    assert count
    p = tmp_path / "spec.json"
    p.write_text(json.dumps({"name": "bounds-empirical", "group": "kp",
                             "parameters": {"n_samples": 20, "seed": 5}}))
    assert run(["run", p, "--out", tmp_path]) == 1
    assert json.loads((tmp_path / "bounds.json").read_text())["violations"] == count
    assert f"{count} convolution bound violations" in capsys.readouterr().err


def test_stabiliser_experiment_needs_no_seed(tmp_path):
    # the stabiliser idempotent samples nothing; sampling keys are ignored
    spec = tmp_path / "spec.json"
    for out, params in (("a", {}), ("b", {"n_samples": 24, "seed": 5})):
        spec.write_text(json.dumps({"name": "stabiliser", "group": "kp",
                                    "parameters": params}))
        assert run(["run", spec, "--out", tmp_path / out]) == 0
    assert (tmp_path / "a" / "stabiliser.json").read_bytes() == \
        (tmp_path / "b" / "stabiliser.json").read_bytes()


def test_stabiliser_experiment_on_one_label(tmp_path):
    # with N = 1 the default partition is the single block {0}, whose face
    # is every state, so the idempotent is the Haar state
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": "stabiliser", "group": "trivial"}))
    assert run(["run", spec, "--out", tmp_path / "out"]) == 0
    data = json.loads((tmp_path / "out" / "stabiliser.json").read_text())
    assert data["partition"] == [[0]]
    assert data["idempotent_duals"] == [{"re": 1.0, "im": 0.0}]


def test_run_with_declared_outputs(tmp_path):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps({"name": "classical-version", "group": "kp",
                             "outputs": ["cv-kp.json"]}))
    assert run(["run", p, "--out", tmp_path / "out"]) == 0
    data = json.loads((tmp_path / "out" / "cv-kp.json").read_text())
    assert data["order"] == 4
    assert abs(data["alpha_haar"] - 0.5) < 1e-12


@pytest.mark.parametrize("declared", [".", "a\x00"], ids=["directory", "null-byte"])
def test_unwritable_declared_output_is_input_error(tmp_path, capsys, declared):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps({"name": "haar", "group": "kp", "outputs": [declared]}))
    assert run(["run", p, "--out", tmp_path / "out"]) == 2
    assert "cannot write a declared output" in capsys.readouterr().err
    assert (tmp_path / "out" / "haar.json").exists()


def test_write_json_is_byte_identical_to_the_copying_encoder(tmp_path, retired_routes):
    # json encodes floats, ints, bools, tuples and the non-finite values
    # itself; the default= hook only converts what it lacks
    kp = BUILTIN_GROUPS["kp"]()
    payload = {
        "f64": np.float64(0.1), "f32": np.float32(0.1), "i64": np.int64(-7),
        "flag": np.bool_(True), "flags": np.array([True, False]), "z": 1 - 2j,
        "z128": np.complex128(-0.0 + 1e-300j), "zs": np.array([1j, 2.5 - 0.0j]),
        "f32s": np.linspace(0, 1, 5, dtype=np.float32), "f64s": np.linspace(0, 1, 7),
        "i64s": np.arange(3, dtype=np.int64), "state": kp.haar,
        "pair": (1, np.float64(2.5), "x", (np.int64(3), None)),
        "special": [float("nan"), float("inf"), -float("inf"), -0.0, np.float64("nan"),
                    np.float32("-inf"), np.array([np.nan, -0.0])],
        "nested": {"b": [np.float32(1e-8), {"c": 1.0 / 3}], "a": False},
    }
    cli.write_json(tmp_path / "new.json", payload)
    with open(tmp_path / "old.json", "w") as fh:
        json.dump(retired_routes.jsonable(payload), fh, indent=1, sort_keys=True)
        fh.write("\n")
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()


# -- the failure boundary: main turns each failure into its exit code --------------


@pytest.mark.parametrize("out", ["file", "file/sub"], ids=["existing-file", "under-a-file"])
def test_run_out_that_cannot_be_a_directory_is_input_error(tmp_path, capsys, out):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": "haar", "group": "kp"}))
    (tmp_path / "file").write_text("")
    assert run(["run", spec, "--out", tmp_path / out]) == 2
    assert "input error" in capsys.readouterr().err


def test_report_unwritable_summary_is_input_error(tmp_path, capsys):
    (tmp_path / "order.json").write_text(json.dumps({"order": 4}))
    (tmp_path / "summary.json").mkdir()
    assert run(["report", tmp_path]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("error", [AlgebraError, np.linalg.LinAlgError])
@pytest.mark.parametrize("name", ["haar", "stabiliser", "classical-version"])
def test_failed_classical_version_is_assertion_failure(tmp_path, capsys, monkeypatch,
                                                      name, error):
    # a certificate or LAPACK failure exits 1 from every experiment, which
    # writes nothing rather than an artifact without alpha
    def failing(G):
        raise error("certificate failed")

    monkeypatch.setattr(cli.permutation, "classical_version", failing)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": name, "group": "kp"}))
    assert run(["run", spec, "--out", tmp_path / "out"]) == 1
    assert "assertion failure: certificate failed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_other_exceptions_keep_their_traceback(tmp_path, monkeypatch):
    # past the input and certificate failures, an exception is a bug in qperm
    def failing(G, params, out):
        raise TypeError("a bug")

    monkeypatch.setitem(cli.EXPERIMENTS, "haar", failing)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": "haar", "group": "kp"}))
    with pytest.raises(TypeError, match="a bug"):
        run(["run", spec, "--out", tmp_path / "out"])


def test_report_empty_dir_fails(tmp_path):
    assert run(["report", tmp_path]) == 2


def test_report_aggregates(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": "classical-version", "group": "dual-s4"}))
    out = tmp_path / "out"
    assert run(["run", spec, "--out", out]) == 0
    spec.write_text(json.dumps({"name": "dihedral-sweep", "group": "dual-d3",
                                "parameters": {"m_values": [3, 4]}}))
    assert run(["run", spec, "--out", out]) == 0
    assert run(["report", out]) == 0
    printed = capsys.readouterr().out
    assert "classical_version" in printed
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["classical_version"]["alpha_haar"] - 11 / 12) < 1e-12


def test_report_rerun_skips_its_own_summary(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": "haar", "group": "kp"}))
    out = tmp_path / "out"
    assert run(["run", spec, "--out", out]) == 0
    assert run(["report", out]) == 0
    first = (out / "summary.json").read_text()
    capsys.readouterr()
    assert run(["report", out]) == 0
    rows = capsys.readouterr().out.splitlines()[1:-2]  # between the rules
    assert [r.split()[0] for r in rows] == ["haar"]
    assert (out / "summary.json").read_text() == first
    assert set(json.loads(first)) == {"haar"}


@pytest.mark.parametrize("name, text", [
    ("haar.json", "{not json"),
    ("haar.json", "[1, 2]"),
    ("haar.json", "3"),
    ("dihedral_sweep.json", json.dumps({"rows": []})),
], ids=["invalid-json", "top-level-list", "top-level-number", "empty-sweep-rows"])
def test_report_malformed_artifact_is_input_error(tmp_path, capsys, name, text):
    (tmp_path / "order.json").write_text(json.dumps({"order": 4}))
    (tmp_path / name).write_text(text)
    assert run(["report", tmp_path]) == 2
    assert f"input error: {tmp_path / name}: " in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


def test_haar_experiment(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": "haar", "group": "kp"}))
    assert run(["run", spec, "--out", tmp_path / "out"]) == 0
    data = json.loads((tmp_path / "out" / "haar.json").read_text())
    assert abs(data["alpha_haar"] - 0.5) < 1e-12
    assert data["matches_stored"] < 1e-10


def test_all_builtins_construct():
    for name in BUILTIN_GROUPS:
        G = load_group(name)
        assert G.dim >= 1


def test_every_experiment_runs(tmp_path):
    cases = [
        ("haar", "kp", {}),
        ("classical-version", "dual-s4", {}),
        ("stabiliser", "kp", {"partition": [[0], [1, 2, 3]], "seed": 1}),
        ("idempotent-census", "kp", {"n_seeds": 5, "seed": 2}),
        ("phase-diagram", "kp", {"n": 11}),
        ("bounds-empirical", "kp", {"n_samples": 10, "seed": 3}),
        ("periodicity", "s4", {}),
        ("periodicity", "kp", {}),
        ("fix-spectrum", "dual-s4", {}),
        ("s4hat-walkthrough", "dual-s4", {}),
        ("dihedral-sweep", "dual-d3", {"m_values": [2, 3, 4]}),
    ]
    spec = tmp_path / "spec.json"
    out = tmp_path / "out"
    for name, group, params in cases:
        spec.write_text(json.dumps({"name": name, "group": group,
                                    "parameters": params}))
        assert run(["run", spec, "--out", out]) == 0, name
    produced = {p.name for p in out.iterdir()}
    assert "s4hat.json" in produced and "census.json" in produced
    s4hat = json.loads((out / "s4hat.json").read_text())
    assert s4hat["converged_to_haar"] is True
    assert s4hat["haar_weight_at_lambda_plus"] > 0
    assert s4hat["limit_has_integer_fixed_points"] is False


def _counting(monkeypatch, module, name):
    """Replace module.name with a wrapper that records each call; returns the record."""
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **kw: calls.append(a) or real(*a, **kw))
    return calls


@pytest.mark.parametrize("k_max", [8, 100])
def test_kp_periodicity_reads_one_power_stack(tmp_path, monkeypatch, k_max):
    # E11's alpha_k and period come off one stack of max(64, k_max) + 1
    # powers, equal to what trajectory and detect_period give
    G = BUILTIN_GROUPS["kp"]()
    e11 = State(G.algebra, np.eye(G.dim)[4])
    ref = {"seed": "E11", "period": detect_period(G, e11),
           "alpha_k": trajectory(G, e11, k_max, classical_version(G)).alphas}
    calls = {name: _counting(monkeypatch, cli.dynamics, name)
             for name in ("_powers", "trajectory")}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": "periodicity", "group": "kp",
                                "parameters": {"k_max": k_max}}))
    assert run(["run", spec, "--out", tmp_path]) == 0
    assert json.loads((tmp_path / "periodicity.json").read_text())["rows"] == [ref]
    assert {name: len(c) for name, c in calls.items()} == {"_powers": 1, "trajectory": 0}


def test_s4_periodicity_scans_each_coset_once(tmp_path, monkeypatch):
    # the uniform states on Vg for the 24 g of S4 are 6, one per coset of
    # the Klein four-group V; each is scanned once and every row keeps its
    # own state's period
    G = BUILTIN_GROUPS["s4"]()
    klein = permgroups.klein_four()
    ref = [detect_period(G, uniform_state(G, [permgroups.compose(p, g) for p in klein]))
           for g in G.group_elements]
    calls = _counting(monkeypatch, cli.dynamics, "detect_period")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": "periodicity", "group": "s4"}))
    assert run(["run", spec, "--out", tmp_path]) == 0
    rows = json.loads((tmp_path / "periodicity.json").read_text())["rows"]
    assert [row["period"] for row in rows] == ref
    assert len(calls) == 6


def test_dual_s4_census_classifies_each_distinct_limit_once(tmp_path, monkeypatch):
    # the 52 Cesaro limits of the benchmark's seed-0 dual-S4 census spec (50
    # bank seeds, the counit and Haar) are 4 bytewise distinct; each is
    # classified once and every row keeps its own limit's class
    G, params = BUILTIN_GROUPS["dual-s4"](), {"n_seeds": 50, "seed": 666712825}
    results = idempotent_census(G, 50, seed=params["seed"], extra_seeds=[G.counit, G.haar])
    classes = [classify_idempotent(G, res.limit) for res in results]
    calls = _counting(monkeypatch, cli.idempotent, "classify_idempotent")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": "idempotent-census", "group": "dual-s4",
                                "parameters": params}))
    assert run(["run", spec, "--out", tmp_path]) == 0
    rows = json.loads((tmp_path / "census.json").read_text())["rows"]
    assert [[row["kind"], row["null_dim"]] for row in rows] == [
        [cls.kind, cls.null_space_dim] for cls in classes]
    assert len(calls) == 4


def test_classical_version_experiment_tests_p_c_once(tmp_path, monkeypatch):
    # classical_version raises unless p_C is group-like; the artifact
    # records that fact without testing it again
    calls = _counting(monkeypatch, cli.idempotent, "_group_like_residual")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": "classical-version", "group": "kp"}))
    assert run(["run", spec, "--out", tmp_path]) == 0
    assert len(calls) == 1
    assert json.loads((tmp_path / "classical_version.json").read_text())["p_C_group_like"] is True


def run_child(script, *args, address_space=None):
    """Run a Python script in a fresh interpreter that imports this qperm,
    with BLAS on one thread and, if given, an address-space limit in bytes
    set on that child only.  Returns the completed process."""
    src = str(Path(qperm.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def limit():
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120,
                          preexec_fn=limit if address_space else None)


def test_group_files_over_the_size_budget_exit_2(tmp_path):
    # each would ask numpy for gigabytes for its (N, N, d) magic grid; the
    # schema rejects them from the parsed file, under a 3 GB limit
    z2 = {"kind": "dual", "group_table": [[0, 1], [1, 0]]}
    probes = {
        "degree-20000": {"kind": "classical", "permutations": [list(range(20000))]},
        "z2-x10000": dict(z2, generators=[{"element": 1, "order": 2}] * 10000),
        "z2-x3000": dict(z2, generators=[{"element": 1, "order": 2}] * 3000),
    }
    for name, data in probes.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    script = ("import contextlib, io, json, sys\n"
              "from qperm import cli\n"
              "codes = {}\n"
              "for path in sys.argv[1:]:\n"
              "    err = io.StringIO()\n"
              "    with contextlib.redirect_stderr(err):\n"
              "        codes[path] = [cli.main(['validate', path]), err.getvalue()]\n"
              "print(json.dumps(codes))\n")
    paths = [tmp_path / f"{name}.json" for name in probes]
    done = run_child(script, *paths, address_space=3 * 2 ** 30)
    assert done.returncode == 0, done.stderr
    for path, (code, err) in json.loads(done.stdout).items():
        assert code == 2, path
        assert "at most 120 points" in err, path


def test_size_budget_boundary():
    # Z/40 acting regularly (N^2 d = 64 000) is inside the budget; 121 points are not
    cli._check_group_schema({"kind": "classical", "permutations": [
        [(j + k) % 40 for j in range(40)] for k in range(40)]})
    with pytest.raises(ValueError, match="at most 120 points, not 121"):
        cli._check_group_schema({"kind": "classical", "permutations": [list(range(121))]})


def test_qperm_starts_without_scipy():
    # scipy is a test dependency only: a fresh import of qperm and its CLI,
    # and a whole `qperm validate kp`, load no scipy module
    script = ("import contextlib, io, json, sys\n"
              "import qperm, qperm.cli\n"
              "def scipy(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
              "after_import = scipy()\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = qperm.cli.main(['validate', 'kp'])\n"
              "print(json.dumps([after_import, code, scipy()]))\n")
    done = run_child(script)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[], 0, []]


@pytest.mark.parametrize("build, error", [
    ("qperm.cqg.classical_group([(0, 0)])", "AlgebraError"),
    ("qperm.permgroups.FiniteGroup.from_permutations([(0, 0)])", "ValueError"),
])
def test_a_tuple_that_is_not_a_bijection_is_refused(build, error):
    # (0, 0) is no permutation: walking its cycles for a label never ends
    # and grows a list, so it must be refused before the walk.  Run in a
    # child under a 1 GB limit, so that the walk fails there, out of memory
    # or at the timeout, instead of stopping the suite
    script = ("import qperm.cqg, qperm.permgroups\n"
              f"try:\n    {build}\nexcept ValueError as exc:\n    print(type(exc).__name__)\n")
    done = run_child(script, address_space=2 ** 30)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [error]


def test_qperm_imports_without_numpy_random():
    # numpy.random is loaded only when a state bank is first drawn, not by
    # `import qperm`; drawing one then loads it, so the check can see it
    script = ("import json, sys\n"
              "import qperm, qperm.cli\n"
              "after_import = 'numpy.random' in sys.modules\n"
              "qperm.cli.BUILTIN_GROUPS['kp']().sample_states(2, seed=0)\n"
              "print(json.dumps([after_import, 'numpy.random' in sys.modules]))\n")
    done = run_child(script)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [False, True]


def test_qperm_runs_without_numpy_ma():
    # np.unique imports numpy.ma on first use; the frame build of a stacked
    # positivity check and the Cesaro projector's kernel sizes must not
    script = ("import json, sys\n"
              "import qperm.cli\n"
              "from qperm import idempotent, permutation\n"
              "groups = qperm.cli.BUILTIN_GROUPS\n"
              "permutation.classical_version(groups['dual-s4']())\n"
              "kp = groups['kp']()\n"
              "idempotent.idempotent_census(kp, 4, seed=0)\n"
              "kp.sample_states(3, seed=0)\n"
              "print(json.dumps('numpy.ma' in sys.modules))\n")
    done = run_child(script)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) is False


# -- nesting and the fuzzed input boundary -----------------------------------------

# json's decoder recurses once a level, so past the recursion limit it raises
# RecursionError, which is not a ValueError
DEEP = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize("command", ["validate", "run", "report"])
def test_deeply_nested_json_is_input_error(tmp_path, capsys, command):
    path = tmp_path / "nested.json"
    if command == "validate":
        path.write_text('{"kind": "dual", "group_table": %s}' % DEEP)
        args = ["validate", path]
    elif command == "run":
        path.write_text('{"name": "haar", "group": "kp", "parameters": %s}' % DEEP)
        args = ["run", path, "--out", tmp_path / "out"]
    else:
        path.write_text(DEEP)
        args = ["report", tmp_path]
    assert run(args) == 2
    assert "input error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists() and not (tmp_path / "summary.json").exists()


def test_nested_headline_value_is_input_error(tmp_path, capsys):
    # parsed, but summarising it would recurse through the nesting when written
    nested = "[" * 600 + "]" * 600
    (tmp_path / "haar.json").write_text('{"alpha_haar": %s}' % nested)
    assert run(["report", tmp_path]) == 2
    assert "a headline value must be a number or a boolean" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


# Raw JSON that json.dumps cannot write, spliced in for these placeholders:
# nesting past the recursion limit, nesting below it and an integer literal
# past the interpreter's 4300-digit conversion limit.
RAW = {"<deep>": DEEP, "<nested>": "[" * 600 + "]" * 600, "<huge>": "9" * 5000}

# Integers are small or beyond every cap: an in-range value as large as a cap
# would run a desk-sized experiment, seconds long, which is not the boundary.
NASTY = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 4),
    st.sampled_from([10 ** 5 + 1, 2 ** 63, -2 ** 63, 10 ** 30]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(".a\x00", max_size=3),
    st.lists(st.integers(-2, 4), max_size=4),
    st.lists(st.lists(st.integers(-1, 4), max_size=3), max_size=3),
    st.dictionaries(st.sampled_from(["element", "order", "kind"]), st.integers(-1, 4),
                    max_size=2),
    st.sampled_from(sorted(RAW)),
)

# the builtins of dimension at most 8
SMALL_BUILTINS = ["trivial", "s2", "s3", "klein-s4", "z4-s4", "kp", "dual-z2", "dual-s3",
                  "dual-d3", "dual-d4"]


def _json_text(value) -> str:
    text = json.dumps(value)  # NaN and Infinity become their literals
    for marker, raw in RAW.items():
        text = text.replace(json.dumps(marker), raw)
    return text


@st.composite
def _mutated(draw, document: dict, removable=None):
    """document with up to two keys, or one extra, set to a bad value or
    removed (only those in ``removable``, all by default), or replaced whole."""
    if draw(st.integers(0, 9)) == 0:
        return draw(NASTY)
    document = dict(document)
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(sorted(document) + ["extra"]))
        if (removable is None or key in removable) and draw(st.booleans()):
            document.pop(key, None)
        else:
            document[key] = draw(NASTY)
    return document


@st.composite
def group_files(draw):
    kind = draw(st.sampled_from(["classical", "dual", "kac_paljutkin"]))
    n = draw(st.integers(1, 4))
    if kind == "classical":
        base = {"kind": kind, "permutations": [[(j + k) % n for j in range(n)]
                                                for k in range(n)]}
    elif kind == "dual":
        base = {"kind": kind, "group_table": [[(i + j) % n for j in range(n)] for i in range(n)],
                "generators": [{"element": 1 % n, "order": n}],
                "labels": [f"g{i}" for i in range(n)]}
    else:
        base = {"kind": kind}
    base["tolerance"] = 1e-9
    return draw(_mutated(base))


@st.composite
def specs(draw, group_file: str):
    params = {"seed": draw(st.integers(0, 3)), "n_seeds": draw(st.integers(0, 4)),
              "n_samples": draw(st.integers(1, 8)), "n": draw(st.integers(2, 11)),
              "k_max": draw(st.integers(1, 8)),
              "m_values": draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))}
    if draw(st.booleans()):
        params["partition"] = draw(st.lists(st.lists(st.integers(0, 3), min_size=1,
                                                     max_size=2), min_size=1, max_size=3))
    base = {"name": draw(st.sampled_from(sorted(cli.EXPERIMENTS))),
            "group": draw(st.sampled_from(SMALL_BUILTINS + [group_file])),
            # the defaults of n_samples and m_values are seconds of work
            "parameters": draw(_mutated(params, removable={"seed", "n_seeds", "n", "k_max",
                                                           "partition"})),
            # never absolute: declared outputs are written to
            "outputs": draw(st.lists(st.one_of(st.sampled_from(["a.json", "b/c.json"]),
                                               st.text(".a\x00", max_size=3)), max_size=2))}
    return draw(_mutated(base))


@settings(derandomize=True, database=None, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
@example(data=None)  # both files nested past the recursion limit
def test_fuzzed_group_files_and_specs_exit_0_1_or_2(tmp_path, data):
    # tmp_path is made once for all examples, so each takes its own directory
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    group_path, spec_path, out = work / "group.json", work / "spec.json", work / "out"
    if data is None:
        group_text = '{"kind": "dual", "group_table": %s}' % DEEP
        spec_text = '{"name": "haar", "group": "kp", "parameters": %s}' % DEEP
    else:
        group_text = _json_text(data.draw(group_files()))
        spec_text = _json_text(data.draw(specs(str(group_path))))
        if data.draw(st.booleans()):  # --out names an existing file
            out.write_text("{}")
    group_path.write_text(group_text)
    spec_path.write_text(spec_text)
    assert run(["validate", group_path]) in (0, 1, 2)
    assert run(["run", spec_path, "--out", out]) in (0, 1, 2)
    assert run(["report", out]) in (0, 1, 2)
