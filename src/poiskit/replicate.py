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

Both harnesses run through one driver, :func:`_replicates`, and differ
only in what one replicate computes from its seeds. Replicates are
independent: each is one unit of :func:`poiskit.parallel.map_ordered`
that returns its own values, so the output does not depend on
``threads``. The threads go to the replicates first; a replicate's
cross-validation or pair loop gets what is left,
``threads // (threads across replicates)``, so threads do not multiply.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable

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


def _replicates(
    seed: int, reps: int, streams: int, threads: int | None,
    rep: Callable[[list[int], int], Any],
) -> list:
    """``rep(seeds, inside)`` for every replicate, in replicate order.

    ``seeds`` are the replicate's ``streams`` seeds, derived from ``seed``.
    Up to ``threads`` threads run replicates side by side, at most one
    each, and ``inside`` is what is left for each replicate's own work.
    """
    if reps < 1:
        raise ValidationError("reps must be positive")
    seeds = _rep_seeds(seed, reps, streams)
    total = threads or 1
    across = max(1, min(total, reps))
    return map_ordered(lambda r: rep([int(x) for x in seeds[r]], total // across), reps, across)


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

    def rep(seeds: list[int], inside: int) -> tuple[int, int, float]:
        train_seed, test_seed, cv_seed = seeds
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
        errors = int((predicted != test.data.labels).sum())
        return errors, cv.model.nonzero_features(), cv.selected_rho

    columns = zip(*_replicates(population.seed, reps, 3, threads, rep))
    test_errors, nonzero, selected = (np.array(c, dtype=np.float64) for c in columns)
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
    if cut_k is None:
        cut_k = population.K

    def rep(seeds: list[int], inside: int) -> float:
        dataset = simulate(replace(population, seed=seeds[0]))
        dm = dissimilarity_matrix(dataset.data.matrix, measure, method, beta, transform, inside)
        partition = cut_tree(complete_linkage(dm), cut_k)
        return cer(partition, Partition(dataset.data.labels, dataset.data.K))

    cers = np.array(_replicates(population.seed, reps, 1, threads, rep), dtype=np.float64)
    return {
        "task": "clustering",
        "settings": _settings(
            population, reps, measure=measure, size_factor_method=method,
            cut_k=cut_k, transform=transform, beta=beta,
        ),
        "cers": cers.tolist(),
        "cer": _summary(cers),
    }
