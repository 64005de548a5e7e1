"""One phase of a benchmark run, in a process of its own.

    python3 perfbench/worker.py ROLE --work DIR --workload NAME --seed N --seconds S

Roles:

* ``setup``: import poiskit, simulate the workload's datasets and write
  them; report the time from process start.
* ``plain``: run the workload's op list in rounds until S seconds have
  passed (at least one round), untraced, probing the host's speed between
  ops; report every op and the peak RSS.
* ``traced``: the same with poiskit's public functions wrapped by the
  tracer, preceded by a traced set-up; report per-layer metrics for each
  round and, on the cluster workloads, the pair loop timed serially and at
  the CLI's default thread count.

The result is one JSON object on the last line of standard output.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

# the checkout's sources, ahead of anything installed
SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import hostspeed  # noqa: E402
import numpy  # noqa: E402
import poiskit  # noqa: E402
import workloads  # noqa: E402
from poiskit import cli  # noqa: E402
from poiskit.count_matrix import read_count_matrix  # noqa: E402
from poiskit.dissimilarity import poisson_dissimilarity_matrix  # noqa: E402
from poiskit.transform import find_alpha  # noqa: E402
from tracer import Tracer, export, self_times  # noqa: E402


def run_rounds(w, seed: int, data: Path, out: Path, seconds: float, refs, after_round=None):
    """Rounds of the op list until ``seconds`` have passed; op records per round.

    The host-speed probe runs between ops; each op records the mean of the
    probes on either side of it, and as ``time_s`` the latency the metrics
    read: at reference speed on a scaled workload, else as timed.
    """
    seeds = workloads.dataset_seeds(w, seed)
    rounds = []
    started = time.perf_counter()
    before = hostspeed.probe()
    while not rounds or time.perf_counter() - started < seconds:
        ops = []
        for i, (_, aux_seed) in enumerate(seeds):
            record = workloads.run_op(w, data / f"d{i}", out / f"d{i}", aux_seed, refs[i])
            after = hostspeed.probe()
            record["probe_s"] = (before + after) / 2
            record["time_s"] = (
                hostspeed.at_reference(record["latency_s"], record["probe_s"])
                if w.scaled else record["latency_s"]
            )
            before = after
            first = rounds[0][i] if rounds else record
            if record["ok"] and record["error_rate"] != first["error_rate"]:
                record["ok"] = False
                record["error"] = "rerun gave another result than the first round"
            if record["error"]:
                print(f"op on dataset d{i} failed:\n{record['error']}", file=sys.stderr)
            ops.append(record)
        rounds.append(ops)
        if after_round is not None:
            after_round()
    return rounds


def references(w, seed: int, data: Path) -> list:
    return [
        workloads.reference(w, data / f"d{i}", aux_seed)
        for i, (_, aux_seed) in enumerate(workloads.dataset_seeds(w, seed))
    ]


# Per-layer metrics: sums of span self times, by the functions each covers.
# With the matrix and pair spans below, every traced function's time lands
# in one of these metrics (perfbench/test_tracer.py checks it).
SELF_TIME_METRICS = {
    "count_matrix.read_s": (
        "count_matrix.read_count_matrix", "count_matrix.read_labels",
        "count_matrix.read_two_column_tsv",
    ),
    "transform.find_alpha_s": (
        "transform.find_alpha", "transform.apply_alpha", "transform.gof_statistic",
    ),
    "size_factors.estimate_s": (
        "size_factors.estimate_size_factors", "size_factors.estimate_test_size_factor",
    ),
    "plda.cross_validate_s": (
        "plda.cross_validate", "plda.default_rho_grid", "plda.stratified_folds",
        "plda.shrinkage_upper_bound",
    ),
    "plda.fit_s": ("plda.fit",),
    "plda.predict_s": ("plda.predict", "plda.predict_matrix"),
    "plda.model_io_s": ("plda.write_model", "plda.read_model"),
    "dissimilarity.io_s": ("dissimilarity.write_dissimilarity", "dissimilarity.read_dissimilarity"),
    "clustering.linkage_s": ("clustering.complete_linkage",),
    "clustering.cer_s": ("clustering.cer_sweep", "clustering.cut_tree", "clustering.cer"),
    "cli.overhead_s": ("cli.main",),
}
SETUP_SELF_TIME_METRICS = {
    "simulate.s": ("simulate.simulate", "simulate.split_train_test"),
    "count_matrix.write_s": ("count_matrix.write_count_matrix", "count_matrix.write_labels"),
}
# dissimilarity.matrix_s: wall time of the matrix calls, pair calls included
# (they may overlap on pool threads), other children such as find_alpha not.
MATRIX_SPAN = "dissimilarity.poisson_dissimilarity_matrix"
PAIR_SPAN = "dissimilarity.poisson_pair_dissimilarity"
CALL_METRICS = {
    "transform.find_alpha_calls": "transform.find_alpha",
    "size_factors.test_factor_calls": "size_factors.estimate_test_size_factor",
    "plda.predict_calls": "plda.predict",
    "dissimilarity.pair_calls": PAIR_SPAN,
    "clustering.cut_tree_calls": "clustering.cut_tree",
}
CONSTRUCTION_METRICS = {
    "count_matrix.constructions": "CountMatrix",
    "plda.models_built": "PldaModel",
}


def self_time_sums(spans, table) -> dict:
    """For each metric of ``table``, the summed self time of its functions' spans."""
    own = self_times(spans)
    by_name: dict = {}
    for span in spans:
        by_name[span.name] = by_name.get(span.name, 0.0) + own[id(span)]
    return {
        metric: sum(by_name.get(name, 0.0) for name in names) for metric, names in table.items()
    }


def layer_metrics(spans, counts) -> dict:
    """Per-layer metrics of one round of traced ops."""
    metrics = self_time_sums(spans, SELF_TIME_METRICS)
    calls = Counter(span.name for span in spans)
    metrics.update({m: calls[name] for m, name in CALL_METRICS.items()})
    metrics.update({m: counts[name] for m, name in CONSTRUCTION_METRICS.items()})
    matrix_s = 0.0
    for span in spans:
        if span.name == MATRIX_SPAN:
            matrix_s += span.duration
        elif span.name != PAIR_SPAN and span.parent is not None and (
            span.parent.name == MATRIX_SPAN
        ):
            matrix_s -= span.duration
    metrics["dissimilarity.matrix_s"] = matrix_s
    pairs = metrics["dissimilarity.pair_calls"]
    metrics["dissimilarity.pairs_per_s"] = pairs / matrix_s if matrix_s > 0 else 0.0
    return metrics


def threads_probe(data: Path) -> dict:
    """The pair loop on one dataset, serial and at the CLI's default threads."""
    matrix = find_alpha(read_count_matrix(data / "counts.tsv")).matrix
    threads = cli._default_threads()
    started = time.perf_counter()
    serial = poisson_dissimilarity_matrix(matrix, transform=False, threads=1)
    serial_s = time.perf_counter() - started
    started = time.perf_counter()
    threaded = poisson_dissimilarity_matrix(matrix, transform=False, threads=threads)
    threaded_s = time.perf_counter() - started
    return {
        "serial_s": serial_s,
        "threaded_s": threaded_s,
        "threads": threads,
        "identical": serial.condensed.tobytes() == threaded.condensed.tobytes(),
    }


def role_setup(args, w) -> dict:
    workloads.setup(w, args.seed, args.work / "data")
    return {
        "setup_s": time.perf_counter() - STARTED,
        "dataset_seeds": workloads.dataset_seeds(w, args.seed),
    }


def role_plain(args, w) -> dict:
    data = args.work / "data"
    refs = references(w, args.seed, data)
    rounds = run_rounds(w, args.seed, data, args.work / "plain", args.seconds, refs)
    return {
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads": cli._default_threads(),
        "scaled": w.scaled,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }


def role_traced(args, w) -> dict:
    data = args.work / "data"
    refs = references(w, args.seed, data)
    tracer = Tracer()
    tracer.install()
    try:
        workloads.setup(w, args.seed, args.work / "traced-setup")
        spans, counts = tracer.reset()
        setup_metrics = self_time_sums(spans, SETUP_SELF_TIME_METRICS)
        kept = [(-1, spans)]
        per_round = []

        def after_round():
            spans, counts = tracer.reset()
            per_round.append(layer_metrics(spans, counts))
            kept.append((len(per_round) - 1, spans))

        rounds = run_rounds(
            w, args.seed, data, args.work / "traced", args.seconds, refs, after_round
        )
    finally:
        tracer.uninstall()
    with open(args.work / "spans.jsonl", "w", encoding="utf-8") as handle:
        for round_index, spans in kept:
            for record in export(spans):
                record["round"] = round_index
                handle.write(json.dumps(record) + "\n")
    layers = {
        name: statistics.median_low(r[name] for r in per_round)
        if isinstance(per_round[0][name], int)
        else statistics.median(r[name] for r in per_round)
        for name in per_round[0]
    }
    layers.update(setup_metrics)
    probe = threads_probe(data / "d0") if w.kind == "cluster" else None
    return {"rounds": rounds, "layers": layers, "threads_probe": probe}


ROLES = {"setup": role_setup, "plain": role_plain, "traced": role_traced}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one phase of a benchmark run")
    parser.add_argument("role", choices=ROLES)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    if Path(poiskit.__file__).resolve().parent != SRC / "poiskit":
        raise SystemExit(f"poiskit imported from {poiskit.__file__}, not from {SRC}")
    result = ROLES[args.role](args, workloads.WORKLOADS[args.workload])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
