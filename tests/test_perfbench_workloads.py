"""Each benchmark workload's operation runs once and passes the workload's own checks.

``perfbench/workloads.py`` calls poiskit the way a benchmark run does:
``simulate`` and ``split_train_test`` unpacked as a pair, the TSV writers,
``find_alpha(m).matrix.values``, the scalar pair kernel and ``cli.main``.
Only a benchmark run would otherwise exercise those calls, so a change to
any of them could break the benchmark without failing another test. The
module is loaded by file path, as ``test_perfbench_names.py`` loads the
tracer.
"""

import contextlib
import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # @dataclass looks the module up by name
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_op_of_each_workload_passes_its_checks(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    data, out = tmp_path / "data", tmp_path / "out"
    workloads.setup(workload, 1, data)
    _, aux_seed = workloads.dataset_seeds(workload, 1)[0]
    ref = workloads.reference(workload, data / "d0", aux_seed)
    # classify's training draw of 12 samples in 3 classes holds 4 per class
    expected = (
        pytest.warns(RuntimeWarning, match="reducing folds from 5 to 4")
        if name == "classify" else contextlib.nullcontext()
    )
    with expected:
        record = workloads.run_op(workload, data / "d0", out / "d0", aux_seed, ref)
    assert record["ok"], record["error"]
