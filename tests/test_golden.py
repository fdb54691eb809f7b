"""Golden artifacts: every registered experiment against the seed-0 reference.

The specs, their gates and the committed reference artifacts
(``perfbench/reference_seed0.json``) belong to the benchmark; the comparison is
exact on structure, strings, ints and bools and within 1e-10 on numbers.
Re-record the reference with ``python3 perfbench/record_reference.py``.

The public API is pinned too: every defaulted parameter of the seven qperm
modules is on an allow-list with the reason it stays, so that a per-call
tolerance or iteration knob cannot come back unnoticed.
"""
import importlib
import inspect
import sys
from pathlib import Path

import pytest

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


# (callable, defaulted parameter) -> why it stays.  Tolerances and iteration
# counts belong to the algebra (``tol`` from the group file, ``iter_tol`` fixed)
# or are written at their one point of use.
DEFAULTED_PARAMETERS = {
    ("algebra.StarAlgebra", "tol"): "the group file's tolerance",
    ("algebra.StarAlgebra", "check"): "check flag; the validator tests build bad algebras",
    ("algebra.StarAlgebra.state", "check"): "check flag",
    ("algebra.AlgebraElement.is_projection", "tol"): "src uses alg.tol and 100 alg.tol",
    ("algebra.Projection", "check"): "check flag; the zero projection is built unchecked",
    ("algebra.State", "check"): "check flag; convolutions of states skip the check",
    ("cqg.CompactQuantumGroup", "haar"): "a known Haar state; solved for when absent",
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
    ("idempotent.IdempotentClass", "witnesses"): "record field",
    ("idempotent.is_idempotent", "tol"): "quasi_subgroup_member and classify_idempotent pass one",
    ("idempotent.quasi_subgroup_member", "tol"): "the tests rely on the default",
    ("idempotent.collapse_stability_probe", "n_samples"): "perfbench passes and reads it",
    ("idempotent.collapse_stability_probe", "seed"): "perfbench passes it",
    ("idempotent.idempotent_census", "seed"): "the CLI seed",
    ("idempotent.idempotent_census", "extra_seeds"): "the CLI adds the counit and Haar",
    ("permutation.stabiliser_membership", "tol"): "the tests rely on the default",
    ("permutation.fixed_point_distribution", "spectrum"): "the CLI reuses one spectrum",
    ("permutation.has_integer_fixed_points", "spectrum"): "the CLI reuses one spectrum",
    ("dynamics.RegionLabel", "q2i"): "record field",
    ("dynamics.RegionLabel", "q3i"): "record field",
    ("dynamics.RegionLabel", "qhalfw"): "record field",
    ("dynamics.RegionLabel", "notes"): "record field",
    ("dynamics.idempotent_gap_check", "tol"): "the acceptance tests pass it",
    ("dynamics.verify_bounds_empirically", "n_samples"): "the CLI n_samples",
    ("dynamics.verify_bounds_empirically", "seed"): "the CLI seed",
    ("dynamics.verify_bounds_empirically", "tol"): "the acceptance tests pass it",
    ("dynamics.trajectory", "cv"): "fractions are NaN without a classical version",
    ("dynamics.convergence_to_haar", "k_max"): "the CLI k_max",
    ("dynamics.phase_diagram_rows", "n"): "the CLI n",
    ("permgroups.FiniteGroup", "perms"): "record field: the permutations, if any",
    ("permgroups.FiniteGroup", "_inv"): "record field filled in __post_init__",
    ("permgroups.FiniteGroup.from_permutations", "labels"): "labels default to cycle notation",
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
