"""Negative-binomial simulator: moments, determinism, shared truth."""

import io
import json
from dataclasses import asdict

import numpy as np
import pytest

from poiskit.errors import ValidationError
from poiskit.simulate import (
    SimulationConfig,
    draw_negative_binomial,
    simulate,
    split_train_test,
    write_truth,
)


def test_poisson_limit_moments():
    rng = np.random.default_rng(100)
    mu = 50.0
    draws = draw_negative_binomial(rng, np.full(100_000, mu), 0.0).astype(float)
    se_mean = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - mu) <= 4 * se_mean
    centered = (draws - draws.mean()) ** 2
    se_var = centered.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.var(ddof=1) - mu) <= 4 * se_var


def test_overdispersed_moments():
    rng = np.random.default_rng(101)
    mu, phi = 50.0, 1.0
    draws = draw_negative_binomial(rng, np.full(100_000, mu), phi).astype(float)
    expected_var = mu + mu * mu * phi  # 2550
    centered = (draws - draws.mean()) ** 2
    se_var = centered.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.var(ddof=1) - expected_var) <= 4 * se_var


def test_same_seed_is_bit_identical():
    config = SimulationConfig(n=10, p=300, K=3, phi=0.1, sigma=0.2, seed=77)
    a = simulate(config)
    b = simulate(config)
    assert np.array_equal(a.data.matrix.values, b.data.matrix.values)
    assert np.array_equal(a.truth.s, b.truth.s)
    assert np.array_equal(a.truth.d, b.truth.d)


def test_counts_are_nonnegative_integers():
    dataset = simulate(SimulationConfig(n=8, p=200, K=2, phi=0.5, sigma=0.3, seed=3))
    values = dataset.data.matrix.values
    assert np.all(values >= 0)
    assert np.array_equal(values, np.floor(values))


def test_labels_are_balanced_round_robin():
    dataset = simulate(SimulationConfig(n=25, p=50, K=3, phi=0.01, sigma=0.1, seed=4))
    counts = np.bincount(dataset.data.labels)[1:]
    assert counts.tolist() == [9, 8, 8]


def test_non_de_features_have_unit_ratios():
    dataset = simulate(SimulationConfig(n=6, p=500, K=3, phi=0.01, sigma=0.4, seed=5))
    quiet = ~dataset.truth.de_mask
    assert np.all(dataset.truth.d[:, quiet] == 1.0)
    assert np.any(dataset.truth.d[:, dataset.truth.de_mask] != 1.0)


def test_de_fraction_concentrates():
    dataset = simulate(SimulationConfig(n=4, p=10_000, K=2, phi=0.01, sigma=0.1, seed=6))
    frac = dataset.truth.de_mask.mean()
    tol = 4 * np.sqrt(0.3 * 0.7 / 10_000)
    assert abs(frac - 0.3) <= tol


def test_non_de_class_means_agree():
    # rescaled counts X / (s g) have unit mean in every class for quiet features
    config = SimulationConfig(n=60, p=2_000, K=3, phi=0.01, sigma=0.5, seed=7)
    dataset = simulate(config)
    rescaled = dataset.data.matrix.values / (
        dataset.truth.s[:, None] * dataset.truth.g[None, :]
    )
    quiet = ~dataset.truth.de_mask
    means = [
        rescaled[np.ix_(dataset.data.labels == k, quiet)].mean()
        for k in (1, 2, 3)
    ]
    assert np.allclose(means, 1.0, atol=0.02)
    assert max(means) - min(means) < 0.02


def test_split_shares_population_but_not_samples():
    config = SimulationConfig(n=12, p=400, K=3, phi=0.1, sigma=0.2, seed=8)
    train, test = split_train_test(simulate(config), seed=9)
    assert train.truth.g is test.truth.g
    assert train.truth.d is test.truth.d
    assert train.truth.de_mask is test.truth.de_mask
    assert not np.array_equal(train.truth.s, test.truth.s)
    assert not np.array_equal(train.data.matrix.values, test.data.matrix.values)
    assert np.array_equal(train.data.labels, test.data.labels)
    assert test.data.matrix.shape == train.data.matrix.shape
    assert test.data.matrix.feature_ids == train.data.matrix.feature_ids
    assert test.data.matrix.sample_ids == tuple(f"t{i + 1}" for i in range(12))


def test_truth_json_is_the_text_json_dump_writes(tmp_path):
    dataset = simulate(SimulationConfig(n=12, p=300, K=3, phi=0.1, sigma=0.2, seed=5))
    write_truth(tmp_path / "truth.json", dataset)
    reference = io.StringIO()
    truth = dataset.truth
    json.dump(
        {
            "s": truth.s.tolist(),
            "g": truth.g.tolist(),
            "d": truth.d.tolist(),
            "de_mask": truth.de_mask.tolist(),
            "config": asdict(dataset.config),
        },
        reference,
    )
    text = (tmp_path / "truth.json").read_text(encoding="utf-8")
    assert text == reference.getvalue() + "\n"


def test_config_validation():
    with pytest.raises(ValidationError):
        SimulationConfig(n=2, p=10, K=3, phi=0.1, sigma=0.1)
    with pytest.raises(ValidationError):
        SimulationConfig(n=6, p=10, K=3, phi=-0.1, sigma=0.1)
    with pytest.raises(ValidationError):
        SimulationConfig(n=6, p=10, K=3, phi=0.1, sigma=0.0)
    with pytest.raises(ValidationError):
        SimulationConfig(n=6, p=10, K=3, phi=0.1, sigma=0.1, de_prob=1.5)
    with pytest.raises(ValidationError, match="phi"):
        SimulationConfig(n=6, p=10, K=3, phi=2.2e-313, sigma=0.1)
    with pytest.raises(ValidationError, match="phi"):
        draw_negative_binomial(np.random.default_rng(0), np.ones(3), 2.2e-313)
    for sigma in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError, match="^sigma must be finite and positive$"):
            SimulationConfig(n=6, p=10, K=3, phi=0.1, sigma=sigma)
    with pytest.raises(ValidationError, match="^dispersion phi must be finite and nonnegative$"):
        SimulationConfig(n=6, p=10, K=3, phi=np.inf, sigma=0.1)
    rng = np.random.default_rng(0)
    for mean, phi in ((1e300, 0.0), (1e300, 0.01), (np.nan, 0.01)):
        with pytest.raises(ValidationError, match="^the rates are too large to sample"):
            draw_negative_binomial(rng, np.full(3, mean), phi)
