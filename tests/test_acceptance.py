"""Acceptance suite: the quantitative exit criteria for the toolkit.

Each test prints one PASS/FAIL line (run pytest with -s to see them all).
The replication tests run the full-size configuration (p = 10,000) with
their replicates on 2 threads, which changes no result; the same harnesses
run with any settings through ``poiskit replicate``.
"""

import time
import warnings

import numpy as np
import pytest

from oracles import (
    grid_bayes_posterior,
    multinomial_lrt,
    naive_complete_linkage,
    scalar_pair_dissimilarity,
    scalar_plda_scores,
)

from poiskit.clustering import cer, complete_linkage
from poiskit.count_matrix import CountMatrix, LabeledDataset, Partition
from poiskit.dissimilarity import (
    DissimilarityMatrix,
    poisson_dissimilarity_matrix,
    poisson_pair_dissimilarity,
)
from poiskit.plda import PldaModel, fit, predict
from poiskit.replicate import replicate_classification, replicate_clustering
from poiskit.simulate import SimulationConfig, simulate
from poiskit.transform import find_alpha


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_classification_replication():
    """Mean sPLDA test errors over 50 replicates fall in [1.2, 3.3]."""
    with warnings.catch_warnings():
        # n=12 with K=3 stratifies into 4 folds; the reduction is expected
        warnings.filterwarnings("ignore", message="reducing folds")
        out = replicate_classification(
            n=12, p=10_000, K=3, phi=0.01, sigma=0.05, reps=50, seed=20260810, threads=2
        )
    mean = out["errors"]["mean"]
    report(
        1,
        1.2 <= mean <= 3.3,
        f"mean test errors {mean:.3f} (se {out['errors']['se']:.3f}), window [1.2, 3.3]",
    )


def test_criterion_2_clustering_replication_low_dispersion():
    """Mean CER of Poisson/total-count clustering at phi=0.01 is at most 0.05."""
    out = replicate_clustering(
        n=25, p=10_000, K=3, phi=0.01, sigma=0.15, reps=50, seed=31, cut_k=3, threads=2
    )
    mean = out["cer"]["mean"]
    report(2, mean <= 0.05, f"mean CER {mean:.4f} (se {out['cer']['se']:.4f}), limit 0.05")


def test_criterion_3_clustering_replication_high_dispersion():
    """Mean CER at phi=1, sigma=0.5 falls in [0.15, 0.40]."""
    out = replicate_clustering(
        n=25, p=10_000, K=3, phi=1.0, sigma=0.5, reps=50, seed=32, cut_k=3, threads=2
    )
    mean = out["cer"]["mean"]
    report(
        3,
        0.15 <= mean <= 0.40,
        f"mean CER {mean:.4f} (se {out['cer']['se']:.4f}), window [0.15, 0.40]",
    )


def test_criterion_4_dissimilarity_performance_and_determinism():
    """n=50, p=10,000 matrix in <= 14 s serial; threads change nothing."""
    dataset = simulate(SimulationConfig(n=50, p=10_000, K=3, phi=0.01, sigma=0.1, seed=42))
    started = time.perf_counter()
    serial = poisson_dissimilarity_matrix(dataset.data.matrix, transform=True, threads=1)
    elapsed = time.perf_counter() - started
    threaded = poisson_dissimilarity_matrix(dataset.data.matrix, transform=True, threads=4)
    identical = np.array_equal(serial.condensed, threaded.condensed)
    report(
        4,
        elapsed <= 14.0 and identical,
        f"serial wall time {elapsed:.2f} s (limit 14 s), parallel bit-identical: {identical}",
    )


def test_criterion_5_nonnegativity_zero_and_symmetry():
    """10,000 random pairs: statistic >= 0, zero on identical, symmetric."""
    rng = np.random.default_rng(555)
    checked = 0
    ok = True
    while checked < 10_000:
        p = int(rng.integers(3, 40))
        if checked % 3 == 0:  # zero-heavy integer vectors
            x = rng.integers(0, 4, p) * rng.integers(0, 2, p)
            y = rng.integers(0, 4, p) * rng.integers(0, 2, p)
        elif checked % 3 == 1:
            x = rng.integers(0, 120, p)
            y = rng.integers(0, 120, p)
        else:  # real-valued, as produced by the power transform
            x = np.round(rng.random(p) * 60, 3)
            y = np.round(rng.random(p) * 60, 3)
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        x[0] = max(x[0], 1.0)
        y[0] = max(y[0], 1.0)
        forward = poisson_pair_dissimilarity(x, y)
        ok &= forward >= 0.0
        ok &= poisson_pair_dissimilarity(y, x) == forward
        ok &= poisson_pair_dissimilarity(x, x.copy()) == 0.0
        if not ok:
            break
        checked += 1
    report(5, ok, f"{checked} random pairs: nonnegative, zero on identity, symmetric")


def test_criterion_6_multinomial_equivalence():
    """MLE plug-in path equals the multinomial LRT to 1e-9 relative."""
    rng = np.random.default_rng(666)
    worst = 0.0
    for _ in range(1_000):
        p = int(rng.integers(2, 50))
        x = rng.integers(0, 60, p).astype(float)
        y = rng.integers(0, 60, p).astype(float)
        x[0] = max(x[0], 1.0)
        y[0] = max(y[0], 1.0)
        stat = poisson_pair_dissimilarity(x, y, "total-count", beta=0.0)
        ref = multinomial_lrt(x, y)
        worst = max(worst, abs(stat - ref) / max(1.0, abs(ref)))
    report(6, worst <= 1e-9, f"1,000 integer pairs, worst relative gap {worst:.2e}")


def _random_injected_model(rng):
    K = int(rng.integers(2, 5))
    p = int(rng.integers(2, 30))
    g = rng.random(p) * 50 + 0.5
    d = rng.random((K, p)) * 3 + 0.05
    priors = rng.random(K) + 0.1
    priors /= priors.sum()
    return PldaModel(
        g_hat=g,
        d_hat=d,
        priors=priors,
        beta=1.0,
        rho=0.0,
        size_factors=None,
        alpha=1.0,
        class_names=tuple(str(k) for k in range(1, K + 1)),
    )


def test_criterion_7_classifier_identities():
    """rho=0 shrinkage is bitwise plain PLDA; full shrinkage ties to class 1;
    scores match the scalar oracle at 1e-12."""
    rng = np.random.default_rng(777)

    # (a) rho = 0 reproduces the posterior-mean ratios and scores bitwise
    values = rng.poisson(30.0, size=(12, 40)).astype(float)
    labels = (np.arange(12) % 3) + 1
    data = LabeledDataset(
        CountMatrix(values, tuple(f"s{i}" for i in range(12)), tuple(f"f{j}" for j in range(40))),
        labels,
        3,
    )
    sparse_zero = fit(data, rho=0.0, transform=False)
    s = sparse_zero.size_factors.values
    s_class = np.array([s[data.labels == k].sum() for k in (1, 2, 3)])
    b = np.outer(s_class, sparse_zero.g_hat) + sparse_zero.beta
    a = np.vstack(
        [values[data.labels == k].sum(axis=0) for k in (1, 2, 3)]
    ) + sparse_zero.beta
    plain = PldaModel(
        g_hat=sparse_zero.g_hat,
        d_hat=a / b,
        priors=sparse_zero.priors,
        beta=sparse_zero.beta,
        rho=0.0,
        size_factors=sparse_zero.size_factors,
        alpha=1.0,
        class_names=sparse_zero.class_names,
        feature_ids=sparse_zero.feature_ids,
    )
    bitwise = np.array_equal(sparse_zero.d_hat, plain.d_hat)
    for _ in range(50):
        x = rng.poisson(25.0, 40).astype(float)
        x[0] = max(x[0], 1.0)
        bitwise &= np.array_equal(
            predict(sparse_zero, x).scores, predict(plain, x).scores
        )

    # (b) fully shrunken model predicts class 1 everywhere under uniform priors
    shrunk = fit(data, rho=1e9, transform=False)
    all_first = all(
        predict(shrunk, np.maximum(rng.poisson(25.0, 40), 1).astype(float)).class_index == 1
        for _ in range(50)
    )

    # (c) scalar score oracle at 1e-12 relative on 1,000 random instances
    worst = 0.0
    for _ in range(1_000):
        model = _random_injected_model(rng)
        x = rng.integers(0, 80, model.p).astype(float)
        s_star = float(rng.random() * 2 + 0.05)
        ours = predict(model, x, s_star=s_star).scores
        ref = np.asarray(scalar_plda_scores(x, model.g_hat, model.d_hat, model.priors, s_star))
        worst = max(worst, float(np.max(np.abs(ours - ref) / np.maximum(np.abs(ref), 1e-300))))
    report(
        7,
        bitwise and all_first and worst <= 1e-12,
        f"rho=0 bitwise: {bitwise}, shrunken ties to class 1: {all_first}, "
        f"oracle gap {worst:.2e} (limit 1e-12)",
    )


def test_criterion_8_bayes_boundary_grid():
    """PLDA with true rates matches the exact Poisson posterior on [0,60]^2."""
    model = PldaModel(
        g_hat=np.array([1.0, 1.0]),
        d_hat=np.array([[10.0, 10.0], [28.0, 28.0]]),
        priors=np.array([0.5, 0.5]),
        beta=1.0,
        rho=0.0,
        size_factors=None,
        alpha=1.0,
        class_names=("low", "high"),
    )
    mismatches = 0
    for x1 in range(61):
        for x2 in range(61):
            x = np.array([float(x1), float(x2)])
            ours = predict(model, x, s_star=1.0).class_index
            post = grid_bayes_posterior((10.0, 10.0), (28.0, 28.0), (x1, x2))
            reference = 1 if post[0] >= post[1] else 2
            if ours != reference:
                mismatches += 1
    report(8, mismatches == 0, f"61x61 grid, {mismatches} argmax mismatches")


def test_criterion_9_transform_contract():
    """phi=1 data calibrates to within 0.1% of target; phi=0 keeps alpha=1."""
    noisy = simulate(SimulationConfig(n=25, p=2_000, K=3, phi=1.0, sigma=0.5, seed=13))
    res = find_alpha(noisy.data.matrix)
    gap = abs(res.statistic - res.target) / res.target
    clean = simulate(
        SimulationConfig(n=20, p=2_000, K=3, phi=0.0, sigma=0.1, de_prob=0.0, seed=2)
    )
    res0 = find_alpha(clean.data.matrix)
    ok = res.converged and res.alpha < 1.0 and gap <= 1e-3 and res0.alpha == 1.0
    report(
        9,
        ok,
        f"phi=1: alpha {res.alpha:.4f}, relative gap {gap:.2e}; phi=0: alpha {res0.alpha}",
    )


def test_criterion_10_linkage_oracle_and_cer_hand_case():
    """Production linkage equals the naive reference exactly on 1,000 matrices."""
    rng = np.random.default_rng(1010)
    failures = 0
    for trial in range(1_000):
        n = int(rng.integers(2, 21))
        if trial % 2 == 0:
            sq = np.triu(rng.random((n, n)) * 10, 1)
        else:  # coarse integer distances force ties
            sq = np.triu(rng.integers(1, 5, (n, n)).astype(float), 1)
        full = sq + sq.T
        dm = DissimilarityMatrix.from_full(
            full, tuple(f"x{i}" for i in range(n)), "poisson", "total-count"
        )
        produced = complete_linkage(dm).merges.tolist()
        reference = [list(rec) for rec in naive_complete_linkage(full)]
        if produced != reference:
            failures += 1
    hand_case = cer(Partition([1, 1, 2, 2], 2), Partition([1, 2, 1, 2], 2))
    ok = failures == 0 and hand_case == pytest.approx(4 / 6)
    report(
        10,
        ok,
        f"1,000 random instances, {failures} disagreements; CER hand case = {hand_case:.4f}",
    )
