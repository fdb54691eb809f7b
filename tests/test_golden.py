"""Golden artifacts: every registered experiment against the seed-0 reference.

The specs, their gates and the committed reference artifacts
(``perfbench/reference_seed0.json``) belong to the benchmark; the comparison is
exact on structure, strings, ints and bools and within 1e-10 on numbers.
Re-record the reference with ``python3 perfbench/record_reference.py``.

The public API is pinned too: every name that ``qperm`` exports, and every
defaulted parameter of the seven qperm modules, is on an allow-list with the
reason it stays, so that an uncalled wrapper or a per-call tolerance or
iteration knob cannot come back unnoticed.
"""
import importlib
import inspect
import sys
from pathlib import Path

import pytest

import qperm
from qperm import cli
from qperm.algebra import AlgebraError

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.workloads import Experiments, experiment_specs, spec_label  # noqa: E402
from qperm.cli import EXPERIMENTS  # noqa: E402

LABELS = [spec_label(name, group) for name, group, _ in experiment_specs(0)]


@pytest.fixture(scope="module")
def tasks(tmp_path_factory):
    workload = Experiments(0, smoke=False, workdir=tmp_path_factory.mktemp("golden"))
    return {task.label: task for task in workload.tasks}


def test_every_registered_experiment_is_covered():
    assert {name for name, _, _ in experiment_specs(0)} == set(EXPERIMENTS)


@pytest.mark.parametrize("label", LABELS)
def test_experiment_matches_reference(tasks, label):
    task = tasks[label]
    assert task.check(task.run()) is None


@pytest.mark.parametrize("name", ["dihedral-sweep", "phase-diagram"])
def test_groupless_experiments_build_no_group(tasks, name, monkeypatch):
    # the phase diagram and the dihedral sweep ignore their spec's group, so
    # they run, and match the reference, with no group loadable at all
    def refuse(ref):
        raise AlgebraError(f"group {ref!r} was loaded")

    monkeypatch.setattr(cli, "load_group", refuse)
    label = next(l for l in LABELS if l.startswith(f"{name}@"))
    task = tasks[label]
    assert task.check(task.run()) is None  # exit code 0, artifacts as the reference


# name in qperm.__all__ -> why it stays: its caller in the CLI, in perfbench or
# in another module, or the ROADMAP item that needs it.
EXPORTED_NAMES = {
    "algebra": "module; the CLI and perfbench import it",
    "cqg": "module; the CLI and perfbench import it",
    "dynamics": "module; the CLI and perfbench import it",
    "idempotent": "module; the CLI and perfbench import it",
    "permgroups": "module; the CLI and perfbench import it",
    "permutation": "module; the CLI and perfbench import it",
    "AlgebraElement": "element type; face_idempotent and the spectral functions take one",
    "AlgebraError": "the one error type; the CLI turns it into an exit code",
    "CesaroResult": "returned by cesaro_idempotent; perfbench reads its iterations",
    "ClassicalVersion": "returned by classical_version; dynamics takes one",
    "CompactQuantumGroup": "the group type; the CLI builds group files with it",
    "FixSpectrum": "returned by fix_spectrum; has_integer_fixed_points takes one",
    "IdempotentClass": "returned by classify_idempotent, which the CLI calls",
    "LinearFunctional": "base of State; convolve and birkhoff_matrix take functionals",
    "Projection": "projection type; face_idempotent and meet take them",
    "StarAlgebra": "the algebra type; every cqg constructor builds one",
    "State": "state type; the CLI and perfbench build states",
    "Trajectory": "returned by trajectory; acceptance criteria 3 and 9",
    "ValidationReport": "returned by validate, which the CLI prints",
    "cesaro_idempotent": "perfbench builds census limits with it",
    "characters": "the README's cqg API and tier-1 tests; ROADMAP item 5 reads them off the frame",
    "classical_group": "the CLI builtins and group files; perfbench",
    "classical_version": "the CLI and perfbench",
    "classify_idempotent": "the CLI census and perfbench",
    "collapse_stability_probe": "perfbench passes n_samples and seed (ROADMAP item 1)",
    "condition": "perfbench calls it",
    "convergence_to_haar": "the CLI s4hat walkthrough",
    "convolution_bounds": "verify_bounds_empirically",
    "decompose": "the README's one-row case of the bounds kernels; tier-1 tests",
    "detect_period": "the CLI periodicity experiment",
    "dual_dihedral": "the CLI builtins; perfbench",
    "dual_group": "the CLI group files; perfbench",
    "dual_subgroup_idempotent": "perfbench builds its census with it",
    "dual_symmetric_group": "the CLI builtins; perfbench",
    "face_idempotent": "stabiliser_idempotent and dual_subgroup_idempotent",
    "fix_eigenvector_seed": "the CLI s4hat walkthrough",
    "fix_spectrum": "the CLI fix-spectrum and s4hat experiments",
    "generated_idempotent": "the join closure of the idempotent lattice (ROADMAP item 8)",
    "gram_norm": "is_group_like and the spectral functions",
    "has_integer_fixed_points": "the CLI fix-spectrum and s4hat experiments",
    "idempotent_census": "the CLI census",
    "idempotent_gap_check": "the CLI census",
    "is_group_like": "the CLI, classical_version and perfbench",
    "is_idempotent": "the CLI stabiliser experiment; perfbench checks its key",
    "is_positive_functional": "the README's one-functional positivity check; tier-1 tests",
    "kac_paljutkin": "the CLI builtin kp; perfbench",
    "meet": "the CLI dihedral sweep and stabiliser_projection",
    "projection_rank": "the CLI classical-version experiment",
    "quantum_fraction": "the CLI and dynamics",
    "spectral_partition": "fix_spectrum",
    "spectral_projection": "the README's spectral projection 1_E(f); tier-1 tests",
    "stabiliser_idempotent": "the CLI stabiliser experiment",
    "stabiliser_membership": "stabiliser_idempotent",
    "support_projection": "collapse_stability_probe and perfbench",
    "trajectory": "acceptance criteria 3 and 9",
    "uniform_state": "the CLI periodicity experiment",
    "verify_bounds_empirically": "the CLI bounds-empirical experiment; perfbench",
}


def test_exported_names_are_the_allow_list():
    found, allowed = set(qperm.__all__), set(EXPORTED_NAMES)
    assert found - allowed == set()  # a new public name needs a reason
    assert allowed - found == set()  # a kept name is gone


# (callable, defaulted parameter) -> why it stays.  Tolerances and iteration
# counts belong to the algebra (``tol`` from the group file, ``ITER_TOL`` fixed)
# or are written at their one point of use.
DEFAULTED_PARAMETERS = {
    ("algebra.StarAlgebra", "tol"): "the group file's tolerance",
    ("algebra.StarAlgebra", "check"): "check flag; the validator tests build bad algebras",
    ("algebra.Projection", "check"): "check flag; the zero projection is built unchecked",
    ("algebra.State", "check"): "check flag; convolutions of states skip the check",
    ("cqg.CompactQuantumGroup", "kind"): "family tag set by each constructor",
    ("cqg.CompactQuantumGroup", "check"): "check flag; perfbench builds unchecked groups",
    ("cqg.CompactQuantumGroup.convolve", "check"): "check flag",
    ("cqg.classical_group", "name"): "group name from the file name or the registry",
    ("cqg.classical_group", "tol"): "the group file's tolerance",
    ("cqg.classical_group", "check"): "check flag",
    ("cqg.dual_group", "name"): "group name from the file name or the registry",
    ("cqg.dual_group", "tol"): "the group file's tolerance",
    ("cqg.dual_group", "check"): "check flag",
    ("cqg.dual_symmetric_group", "check"): "check flag",
    ("cqg.dual_dihedral", "check"): "check flag",
    ("cqg.kac_paljutkin", "tol"): "the group file's tolerance",
    ("cqg.kac_paljutkin", "check"): "check flag",
    ("idempotent.collapse_stability_probe", "n_samples"): "perfbench passes and reads it",
    ("idempotent.collapse_stability_probe", "seed"): "perfbench passes it",
    ("idempotent.idempotent_census", "seed"): "the CLI seed",
    ("idempotent.idempotent_census", "extra_seeds"): "the CLI adds the counit and Haar",
    ("dynamics.verify_bounds_empirically", "n_samples"): "the CLI n_samples",
    ("dynamics.verify_bounds_empirically", "seed"): "the CLI seed",
    ("dynamics.trajectory", "cv"): "fractions are NaN without a classical version",
    ("dynamics.convergence_to_haar", "k_max"): "the CLI k_max",
    ("dynamics.phase_diagram_rows", "n"): "the CLI n",
    ("permgroups.FiniteGroup", "perms"): "record field: the permutations, if any",
    ("cli.main", "argv"): "the command line; sys.argv when absent",
}


def _defaulted_parameters():
    """(module.callable, parameter) for every parameter with a default of the
    public functions, classes and methods of the seven qperm modules."""
    found = set()
    for mod in ("permgroups", "algebra", "cqg", "idempotent", "permutation",
                "dynamics", "cli"):
        module = importlib.import_module(f"qperm.{mod}")
        for name, obj in vars(module).items():
            if (name.startswith("_") or getattr(obj, "__module__", None) != module.__name__
                    or not (inspect.isfunction(obj) or inspect.isclass(obj))
                    or inspect.isclass(obj) and issubclass(obj, Exception)):
                continue
            targets = [(f"{mod}.{name}", obj)]
            if inspect.isclass(obj):
                targets += [(f"{mod}.{name}.{attr}", getattr(value, "__func__", value))
                            for attr, value in vars(obj).items()
                            if not attr.startswith("_")]
            for qualname, fn in targets:
                if not callable(fn):
                    continue
                found |= {(qualname, p.name)
                          for p in inspect.signature(fn).parameters.values()
                          if p.default is not inspect.Parameter.empty}
    return found


def test_defaulted_parameters_are_the_allow_list():
    found, allowed = _defaulted_parameters(), set(DEFAULTED_PARAMETERS)
    assert found - allowed == set()  # a new defaulted parameter needs a reason
    assert allowed - found == set()  # a kept parameter is gone


# ``cat src/qperm/*.py | wc -l`` at most this; raising it needs a reason in
# CHANGES.md, as a new name on either allow-list above does.
SOURCE_LINES = 3153


def test_source_line_count_is_pinned():
    found = sum(p.read_bytes().count(b"\n") for p in (ROOT / "src" / "qperm").glob("*.py"))
    assert found <= SOURCE_LINES
