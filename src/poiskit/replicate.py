"""Desk-scale replication harnesses for the simulation benchmarks.

Each harness repeats simulate -> method -> metric over independent seeds
and reports per-replicate values plus the mean and its standard error.
The population is one :class:`SimulationConfig`; its seed is the master
seed that every replicate's seeds derive from.
The classification harness tunes the shrinkage parameter by stratified
cross-validation on a training draw, refits, and counts test errors on an
independent draw of equal size from the same population; the clustering
harness computes a dissimilarity matrix, cuts the complete-linkage tree,
and scores the partition against the generating labels with CER.

Replicates are independent: each is one unit of
:func:`poiskit.parallel.map_ordered` that writes only its own entries, so
the output does not depend on ``threads``. The threads go to the
replicates first; a replicate's cross-validation or pair loop gets what
is left, ``threads // (threads across replicates)``, so threads do not
multiply.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

import numpy as np

from .clustering import cer, complete_linkage, cut_tree
from .count_matrix import Partition
from .dissimilarity import dissimilarity_matrix
from .errors import ValidationError
from .parallel import map_ordered
from .plda import cross_validate, predict_matrix
from .simulate import SimulationConfig, simulate, split_train_test


def _rep_seeds(seed: int, reps: int, streams: int) -> np.ndarray:
    """Independent 63-bit seeds per replicate, derived deterministically."""
    state = np.random.SeedSequence(seed).generate_state(reps * streams, dtype=np.uint64)
    return (state >> np.uint64(1)).reshape(reps, streams).astype(np.int64)


def _rep_threads(threads: int | None, reps: int) -> tuple[int, int]:
    """Threads across replicates, and threads inside each replicate."""
    total = threads or 1
    across = max(1, min(total, reps))
    return across, total // across


def _summary(values: np.ndarray) -> dict[str, float]:
    values = np.asarray(values, dtype=np.float64)
    se = float(values.std(ddof=1) / np.sqrt(values.size)) if values.size > 1 else 0.0
    return {"mean": float(values.mean()), "se": se}


def _settings(population: SimulationConfig, reps: int, **task) -> dict[str, Any]:
    """The population, the replicate count and master seed, then the task's own keys."""
    keys = ("n", "p", "K", "phi", "sigma", "de_prob")
    settings = {key: getattr(population, key) for key in keys}
    return {**settings, "reps": reps, "seed": population.seed, **task}


def replicate_classification(
    population: SimulationConfig,
    reps: int,
    method: str = "total-count",
    folds: int = 5,
    transform: bool = True,
    beta: float = 1.0,
    threads: int | None = None,
) -> dict[str, Any]:
    """Cross-validated classifier errors on fresh test draws."""
    if reps < 1:
        raise ValidationError("reps must be positive")
    seeds = _rep_seeds(population.seed, reps, 3)
    test_errors = np.empty(reps)
    nonzero = np.empty(reps)
    selected = np.empty(reps)
    across, inside = _rep_threads(threads, reps)

    def rep(r: int) -> None:
        train_seed, test_seed, cv_seed = (int(x) for x in seeds[r])
        train, test = split_train_test(simulate(replace(population, seed=train_seed)), test_seed)
        cv = cross_validate(
            train.data,
            method=method,
            folds=folds,
            seed=cv_seed,
            transform=transform,
            beta=beta,
            threads=inside,
        )
        predicted = predict_matrix(cv.model, test.data.matrix).class_index
        test_errors[r] = int((predicted != test.data.labels).sum())
        nonzero[r] = cv.model.nonzero_features()
        selected[r] = cv.selected_rho

    map_ordered(rep, reps, across)
    return {
        "task": "classification",
        "settings": _settings(
            population, reps, size_factor_method=method, folds=folds,
            transform=transform, beta=beta,
        ),
        "test_errors": test_errors.tolist(),
        "nonzero_features": nonzero.tolist(),
        "selected_rho": selected.tolist(),
        "errors": _summary(test_errors),
        "nonzero": _summary(nonzero),
    }


def replicate_clustering(
    population: SimulationConfig,
    reps: int,
    measure: str = "poisson",
    method: str = "total-count",
    cut_k: int | None = None,
    transform: bool = True,
    beta: float = 1.0,
    threads: int | None = None,
) -> dict[str, Any]:
    """Clustering error rates of complete linkage, cut at ``cut_k`` or K clusters."""
    if reps < 1:
        raise ValidationError("reps must be positive")
    if cut_k is None:
        cut_k = population.K
    seeds = _rep_seeds(population.seed, reps, 1)
    cers = np.empty(reps)
    across, inside = _rep_threads(threads, reps)

    def rep(r: int) -> None:
        dataset = simulate(replace(population, seed=int(seeds[r, 0])))
        dm = dissimilarity_matrix(dataset.data.matrix, measure, method, beta, transform, inside)
        partition = cut_tree(complete_linkage(dm), cut_k)
        truth = Partition(dataset.data.labels, dataset.data.K)
        cers[r] = cer(partition, truth)

    map_ordered(rep, reps, across)
    return {
        "task": "clustering",
        "settings": _settings(
            population, reps, measure=measure, size_factor_method=method,
            cut_k=cut_k, transform=transform, beta=beta,
        ),
        "cers": cers.tolist(),
        "cer": _summary(cers),
    }
