"""Workloads of the poiskit benchmark: their inputs, operations and output checks.

Every workload is a fixed list of operations, one per generated dataset.
An operation is the CLI pipeline a user runs on that dataset, called
in-process through ``poiskit.cli.main``:

* ``classify``: ``cv`` on a training draw, then ``predict --labels`` on an
  independent test draw from the same population;
* ``cluster-tall``: ``dissim`` (Poisson, total-count, transform on, default
  threads), then ``cluster --cut-k 3 --sweep --labels``.

The checks read the CLI's output files with this module's own parsers and
call no poiskit function, so in a traced run they record no spans. The
reference values they compare against are computed before timing starts.
"""

from __future__ import annotations

import importlib
import json
import shutil
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from poiskit import cli, count_matrix
from poiskit.dissimilarity import poisson_pair_dissimilarity
from poiskit.transform import find_alpha

# ``poiskit.simulate`` names the function; the module is reached this way.
# Set-up calls through module attributes so that a traced run sees them.
simulation = importlib.import_module("poiskit.simulate")

CUT_K = 3
SAMPLED_PAIRS = 24
# A later pair kernel may sum in another order; allow that much rounding.
PAIR_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "classify" or "cluster"
    n: int
    p: int
    phi: float
    sigma: float
    datasets: int
    # Whether op times are stated at reference host speed (hostspeed.py).
    scaled: bool


# classify: the paper's classification setting (criterion 1's shape). Its ops
# are single-threaded Python and numpy, whose time follows the speed probe.
# cluster-tall: 44,850 pairs over short vectors; linkage and CER sweep at n=300.
# Its ops are timed as they run: most of an op is the pair loop on two pool
# threads that hand the GIL back and forth around every numpy call, and that
# time follows the host's thread wake-ups, not the probe. Over 20 alternating
# pair loops on one n=300 matrix, the probe correlated 0.79 with the serial
# loop's time but 0.20 with the threaded loop's; scaling cut the serial
# loop's coefficient of variation from 0.16 to 0.11 and raised the threaded
# loop's from 0.16 to 0.20.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("classify", "classify", n=12, p=10_000, phi=0.01, sigma=0.05, datasets=8,
                 scaled=True),
        Workload("cluster-tall", "cluster", n=300, p=1_000, phi=0.01, sigma=0.1, datasets=1,
                 scaled=False),
    )
}


def dataset_seeds(workload: Workload, seed: int) -> list[tuple[int, int]]:
    """(simulation seed, auxiliary seed) per dataset, derived from ``seed``.

    The auxiliary seed draws the classify test set and fold split, and the
    sample of dissimilarity pairs checked on the cluster workloads.
    """
    entropy = [seed, *workload.name.encode()]
    state = np.random.SeedSequence(entropy).generate_state(2 * workload.datasets)
    seeds = [int(s) for s in state]
    return list(zip(seeds[0::2], seeds[1::2]))


def setup(workload: Workload, seed: int, data_dir: Path) -> None:
    """Simulate every dataset of the workload and write its TSV inputs."""
    for i, (sim_seed, aux_seed) in enumerate(dataset_seeds(workload, seed)):
        out = data_dir / f"d{i}"
        out.mkdir(parents=True, exist_ok=True)
        config = simulation.SimulationConfig(
            n=workload.n, p=workload.p, K=3, phi=workload.phi,
            sigma=workload.sigma, seed=sim_seed,
        )
        train = simulation.simulate(config)
        count_matrix.write_count_matrix(train.data.matrix, out / "counts.tsv")
        count_matrix.write_labels(out / "labels.tsv", train.data)
        if workload.kind == "classify":
            _, test = simulation.split_train_test(train, aux_seed)
            count_matrix.write_count_matrix(test.data.matrix, out / "test.tsv")
            count_matrix.write_labels(out / "test_labels.tsv", test.data)


def op_commands(workload: Workload, data: Path, out: Path, aux_seed: int) -> list[list[str]]:
    """The CLI argument lists of one operation, run in order."""
    if workload.kind == "classify":
        return [
            ["cv", "--counts", str(data / "counts.tsv"), "--labels", str(data / "labels.tsv"),
             "--seed", str(aux_seed % 2**31), "--out-dir", str(out / "cv")],
            ["predict", "--counts", str(data / "test.tsv"),
             "--model", str(out / "cv" / "model.json"),
             "--labels", str(data / "test_labels.tsv"), "--out-dir", str(out / "predict")],
        ]
    return [
        ["dissim", "--counts", str(data / "counts.tsv"), "--out-dir", str(out / "dissim")],
        ["cluster", "--dissim", str(out / "dissim" / "dissim.tsv"), "--cut-k", str(CUT_K),
         "--sweep", "--labels", str(data / "labels.tsv"), "--out-dir", str(out / "cluster")],
    ]


class CheckFailed(Exception):
    """An operation failed or its output is wrong."""


def _read_pairs(path: Path) -> list[tuple[str, str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [tuple(line.split("\t")) for line in lines if line]


def _cer(a, b) -> float:
    """One minus the Rand index of two label vectors."""
    a = np.asarray(a)
    b = np.asarray(b)
    iu = np.triu_indices(a.size, k=1)
    same_a = (a[:, None] == a[None, :])[iu]
    same_b = (b[:, None] == b[None, :])[iu]
    return float(np.count_nonzero(same_a != same_b)) / iu[0].size


def reference(workload: Workload, data: Path, aux_seed: int) -> dict:
    """What the checks of one dataset compare against."""
    if workload.kind == "classify":
        return {"truth": dict(_read_pairs(data / "test_labels.tsv"))}
    matrix = count_matrix.read_count_matrix(data / "counts.tsv")
    values = find_alpha(matrix).matrix.values
    n = matrix.n
    rng = np.random.default_rng(aux_seed)
    pairs = {(0, 1), (n - 2, n - 1)}
    while len(pairs) < min(SAMPLED_PAIRS, n * (n - 1) // 2):
        i, j = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        pairs.add((i, j))
    return {
        "ids": list(matrix.sample_ids),
        "truth": dict(_read_pairs(data / "labels.tsv")),
        "pairs": {
            (i, j): poisson_pair_dissimilarity(values[i], values[j]) for i, j in sorted(pairs)
        },
    }


def check_classify(out: Path, ref: dict) -> float:
    """Validate one classify op's outputs; return its test error rate."""
    truth = ref["truth"]
    manifest = json.loads((out / "predict" / "manifest.json").read_text(encoding="utf-8"))
    cv = json.loads((out / "cv" / "cv.json").read_text(encoding="utf-8"))
    if cv["selected_rho"] not in cv["rho_grid"]:
        raise CheckFailed("cv selected a rho outside its grid")
    lines = (out / "predict" / "predictions.tsv").read_text(encoding="utf-8").splitlines()
    rows = [line.split("\t") for line in lines[1:] if line]
    if [r[0] for r in rows] != list(truth):
        raise CheckFailed("predictions do not cover the test samples in order")
    errors = 0
    for row in rows:
        posterior = [float(v) for v in row[2:]]
        if abs(sum(posterior) - 1.0) > 1e-9 or min(posterior) < 0:
            raise CheckFailed(f"posterior of '{row[0]}' is not a distribution")
        errors += row[1] != truth[row[0]]
    if manifest.get("errors") != errors or manifest.get("n") != len(rows):
        raise CheckFailed(
            f"manifest reports {manifest.get('errors')} errors, predictions.tsv has {errors}"
        )
    return errors / len(rows)


def check_cluster(out: Path, ref: dict) -> float:
    """Validate one cluster op's outputs; return the CER of the k=3 cut."""
    ids = ref["ids"]
    lines = (out / "dissim" / "dissim.tsv").read_text(encoding="utf-8").splitlines()
    if lines[0].split("\t")[1:] != ids:
        raise CheckFailed("dissimilarity header does not list the sample ids")
    rows = [line.split("\t") for line in lines[1:] if line]
    if [r[0] for r in rows] != ids:
        raise CheckFailed("dissimilarity rows do not list the sample ids")
    for (i, j), expected in ref["pairs"].items():
        got, mirror = float(rows[i][j + 1]), float(rows[j][i + 1])
        if got != mirror or float(rows[i][i + 1]) != 0.0:
            raise CheckFailed(f"dissimilarity is not symmetric with zero diagonal at ({i}, {j})")
        if abs(got - expected) > PAIR_RTOL * max(1.0, abs(expected)):
            raise CheckFailed(f"pair ({ids[i]}, {ids[j]}): {got!r} != reference {expected!r}")
    partition = _read_pairs(out / "cluster" / "partition.tsv")
    if [sid for sid, _ in partition] != ids:
        raise CheckFailed("partition does not cover the sample ids in order")
    if sorted({c for _, c in partition}) != [str(k) for k in range(1, CUT_K + 1)]:
        raise CheckFailed(f"partition does not have exactly {CUT_K} clusters")
    value = _cer([c for _, c in partition], [ref["truth"][sid] for sid in ids])
    sweep = json.loads((out / "cluster" / "sweep.json").read_text(encoding="utf-8"))
    if [e["k"] for e in sweep] != list(range(2, len(ids) + 1)):
        raise CheckFailed("CER sweep does not cover k = 2..n")
    if abs(sweep[CUT_K - 2]["cer"] - value) > 1e-12:
        raise CheckFailed("CER sweep disagrees with the k=3 partition")
    return value


def run_op(workload: Workload, data: Path, out: Path, aux_seed: int, ref: dict) -> dict:
    """Run one operation, then check it. Failures are recorded, not raised."""
    record = {"latency_s": None, "ok": False, "error_rate": None, "error": None}
    shutil.rmtree(out, ignore_errors=True)
    started = time.perf_counter()
    try:
        try:
            for argv in op_commands(workload, data, out, aux_seed):
                code = cli.main(argv)
                if code != 0:
                    raise CheckFailed(f"poiskit {argv[0]} exited with code {code}")
        finally:
            record["latency_s"] = time.perf_counter() - started
        check = check_classify if workload.kind == "classify" else check_cluster
        record["error_rate"] = check(out, ref)
        record["ok"] = True
    except Exception:  # an op boundary: record the failure and go on
        record["error"] = traceback.format_exc()
    return record
