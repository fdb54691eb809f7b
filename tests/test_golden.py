"""Golden artifacts: every registered experiment against the seed-0 reference.

The specs, their gates and the committed reference artifacts
(``perfbench/reference_seed0.json``) belong to the benchmark; the comparison is
exact on structure, strings, ints and bools and within 1e-10 on numbers.
Re-record the reference with ``python3 perfbench/record_reference.py``.
"""
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
