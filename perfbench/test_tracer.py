"""Tests of the benchmark's tracer.

    python3 -m pytest -q perfbench
"""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hostspeed  # noqa: E402
import poiskit  # noqa: E402
from poiskit import cli  # noqa: E402
from poiskit.count_matrix import write_count_matrix  # noqa: E402
from poiskit.simulate import SimulationConfig, simulate  # noqa: E402
import workloads  # noqa: E402
from tracer import TRACED_FUNCTIONS, Tracer, self_times  # noqa: E402
from worker import (  # noqa: E402
    MATRIX_SPAN, PAIR_SPAN, SELF_TIME_METRICS, SETUP_SELF_TIME_METRICS, layer_metrics,
)


def _poiskit_functions():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name.split(".")[0] == "poiskit"
        for attr, value in vars(module).items()
        if callable(value)
    }


def _traced_names():
    return sorted(
        f"{name}.{attr}"
        for (name, attr), value in _poiskit_functions().items()
        if getattr(value, "__perfbench_traced__", False)
    )


@pytest.fixture
def tracer():
    tracer = Tracer()
    yield tracer
    tracer.uninstall()


def test_nested_spans_give_parents_and_self_time(tracer):
    inner = tracer.wrap(lambda: time.sleep(0.02), "inner")

    def body():
        time.sleep(0.01)
        inner()
        inner()

    tracer.wrap(body, "outer")()
    spans, _ = tracer.reset()
    outer = next(s for s in spans if s.name == "outer")
    inners = [s for s in spans if s.name == "inner"]
    assert len(inners) == 2 and all(s.parent is outer for s in inners)
    assert outer.parent is None
    own = self_times(spans)
    assert own[id(outer)] == pytest.approx(outer.duration - sum(s.duration for s in inners))
    assert own[id(outer)] >= 0.009
    assert all(own[id(s)] == s.duration for s in inners)


def test_threaded_children_never_give_negative_self_time(tracer):
    barrier = threading.Barrier(4, timeout=10)

    def work():
        barrier.wait()
        time.sleep(0.03)

    child = tracer.wrap(work, "child")

    def fan_out():
        with ThreadPoolExecutor(max_workers=4) as pool:
            for future in [pool.submit(child) for _ in range(4)]:
                future.result()

    tracer.wrap(fan_out, "parent")()
    spans, _ = tracer.reset()
    parent = next(s for s in spans if s.name == "parent")
    children = [s for s in spans if s.name == "child"]
    assert len(children) == 4 and all(s.parent is parent for s in children)
    assert len({s.thread for s in children}) == 4
    # the children overlap: their summed time exceeds the parent's wall time
    assert sum(s.duration for s in children) > parent.duration
    own = self_times(spans)
    assert all(value >= 0.0 for value in own.values())


def test_wrappers_are_absent_from_untraced_runs(tracer, tmp_path):
    before = _poiskit_functions()
    post_init = poiskit.CountMatrix.__post_init__
    assert _traced_names() == []
    tracer.install()
    assert "poiskit.cli.main" in _traced_names()
    assert "poiskit.plda.find_alpha" in _traced_names()
    tracer.uninstall()
    assert _poiskit_functions() == before
    assert poiskit.CountMatrix.__post_init__ is post_init

    # an untraced op installs nothing and records nothing
    data = tmp_path / "data"
    workload = workloads.Workload("tiny", "cluster", n=6, p=40, phi=0.01, sigma=0.1, datasets=1,
                                  scaled=False)
    workloads.setup(workload, 1, data)
    (_, aux_seed), = workloads.dataset_seeds(workload, 1)
    ref = workloads.reference(workload, data / "d0", aux_seed)
    record = workloads.run_op(workload, data / "d0", tmp_path / "out", aux_seed, ref)
    assert record["ok"], record["error"]
    assert _traced_names() == []
    assert tracer.reset()[0] == []


@pytest.mark.parametrize("threads", ["1", "3"])
def test_pair_calls_count_every_pair_once(tracer, tmp_path, threads):
    n = 7
    dataset = simulate(SimulationConfig(n=n, p=60, K=3, phi=0.01, sigma=0.1, seed=3))
    write_count_matrix(dataset.data.matrix, tmp_path / "counts.tsv")
    tracer.install()
    argv = ["dissim", "--counts", str(tmp_path / "counts.tsv"), "--threads", threads,
            "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    spans, counts = tracer.reset()
    metrics = layer_metrics(spans, counts)
    assert metrics["dissimilarity.pair_calls"] == n * (n - 1) // 2
    assert metrics["transform.find_alpha_calls"] == 1
    assert 0.0 < metrics["dissimilarity.matrix_s"]
    assert all(value >= 0.0 for value in self_times(spans).values())


def test_every_traced_function_feeds_a_time_metric():
    traced = {
        f"{module.split('.')[-1]}.{name}"
        for module, names in TRACED_FUNCTIONS.items()
        for name in names
    }
    covered = {
        name
        for table in (SELF_TIME_METRICS, SETUP_SELF_TIME_METRICS)
        for names in table.values()
        for name in names
    }
    assert traced == covered | {MATRIX_SPAN, PAIR_SPAN}


@pytest.mark.parametrize("kind", ["classify", "cluster"])
def test_time_metrics_add_up_to_the_op(tracer, tmp_path, kind):
    workload = workloads.Workload(
        "tiny", kind, n=12, p=300, phi=0.01, sigma=0.05, datasets=1, scaled=False
    )
    data = tmp_path / "data" / "d0"
    workloads.setup(workload, 2, tmp_path / "data")
    (_, aux_seed), = workloads.dataset_seeds(workload, 2)
    ref = workloads.reference(workload, data, aux_seed)
    tracer.install()
    record = workloads.run_op(workload, data, tmp_path / "out", aux_seed, ref)
    spans, counts = tracer.reset()
    assert record["ok"], record["error"]
    metrics = layer_metrics(spans, counts)
    op_time = sum(s.duration for s in spans if s.name == "cli.main")
    times = [*SELF_TIME_METRICS, "dissimilarity.matrix_s"]
    assert sum(metrics[name] for name in times) == pytest.approx(op_time, rel=1e-9)


def test_host_speed_probe_calls_no_poiskit_function(tracer):
    tracer.install()
    probe_s = hostspeed.probe()
    spans, counts = tracer.reset()
    assert spans == [] and not counts
    assert hostspeed.at_reference(2 * probe_s, probe_s) == pytest.approx(2 * hostspeed.REFERENCE_S)
